// Framing tests and a fuzz pass for the advisory daemon's wire protocol:
// truncated frames, oversized length headers, zero-length frames,
// malformed JSON, interleaved partial writes, and random garbage. The
// contract under attack (docs/SERVING.md): the server answers with a
// structured error or closes the connection cleanly — it never crashes,
// never hangs, and keeps serving well-formed clients afterwards.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "prop_support.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/socket.h"

namespace mlck {
namespace {

using util::Json;

/// Unique socket path per (process, tag): ctest may run suites in
/// parallel, and sockaddr_un paths must stay short.
std::string test_socket(const char* tag) {
  return "/tmp/mlck_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

TEST(ServeProtocol, FrameHeaderRoundTrips) {
  for (const std::uint32_t length :
       {0u, 1u, 255u, 256u, 65536u,
        static_cast<std::uint32_t>(serve::kMaxFrameBytes)}) {
    unsigned char header[serve::kFrameHeaderBytes];
    serve::encode_frame_header(length, header);
    EXPECT_EQ(serve::decode_frame_header(header), length);
  }
  unsigned char header[serve::kFrameHeaderBytes];
  serve::encode_frame_header(0x01020304u, header);
  EXPECT_EQ(header[0], 0x01);  // big-endian on the wire
  EXPECT_EQ(header[1], 0x02);
  EXPECT_EQ(header[2], 0x03);
  EXPECT_EQ(header[3], 0x04);
}

TEST(ServeProtocol, EncodeFramePrefixesPayload) {
  const std::string frame = serve::encode_frame("abc");
  ASSERT_EQ(frame.size(), serve::kFrameHeaderBytes + 3);
  EXPECT_EQ(frame.substr(serve::kFrameHeaderBytes), "abc");
}

/// A pipe gives read_frame a real blocking fd with precise control over
/// what bytes arrive before EOF.
struct TestPipe {
  int fds[2] = {-1, -1};
  TestPipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~TestPipe() {
    close_write();
    if (fds[0] >= 0) ::close(fds[0]);
  }
  void close_write() {
    if (fds[1] >= 0) {
      ::close(fds[1]);
      fds[1] = -1;
    }
  }
  void write_bytes(const void* data, std::size_t size) {
    ASSERT_TRUE(util::write_all(fds[1], data, size));
  }
};

TEST(ServeProtocol, ReadFrameHandlesCleanEof) {
  TestPipe pipe;
  pipe.close_write();
  std::string payload;
  EXPECT_EQ(serve::read_frame(pipe.fds[0], payload),
            serve::FrameStatus::kClosed);
}

TEST(ServeProtocol, ReadFrameHandlesTruncatedHeader) {
  TestPipe pipe;
  const unsigned char partial[2] = {0, 0};
  pipe.write_bytes(partial, sizeof partial);
  pipe.close_write();
  std::string payload;
  EXPECT_EQ(serve::read_frame(pipe.fds[0], payload),
            serve::FrameStatus::kTruncated);
}

TEST(ServeProtocol, ReadFrameHandlesTruncatedBody) {
  TestPipe pipe;
  unsigned char header[serve::kFrameHeaderBytes];
  serve::encode_frame_header(100, header);
  pipe.write_bytes(header, sizeof header);
  pipe.write_bytes("only ten b", 10);
  pipe.close_write();
  std::string payload;
  EXPECT_EQ(serve::read_frame(pipe.fds[0], payload),
            serve::FrameStatus::kTruncated);
  EXPECT_TRUE(payload.empty());
}

TEST(ServeProtocol, ReadFrameRejectsZeroLength) {
  TestPipe pipe;
  unsigned char header[serve::kFrameHeaderBytes] = {0, 0, 0, 0};
  pipe.write_bytes(header, sizeof header);
  std::string payload;
  EXPECT_EQ(serve::read_frame(pipe.fds[0], payload),
            serve::FrameStatus::kEmpty);
}

TEST(ServeProtocol, ReadFrameRejectsOversizedWithoutBuffering) {
  TestPipe pipe;
  unsigned char header[serve::kFrameHeaderBytes];
  serve::encode_frame_header(0xFFFFFFFFu, header);
  pipe.write_bytes(header, sizeof header);
  std::string payload;
  // Returns immediately from the header alone — no attempt to read (or
  // allocate) 4 GiB of body.
  EXPECT_EQ(serve::read_frame(pipe.fds[0], payload),
            serve::FrameStatus::kOversized);
  EXPECT_TRUE(payload.empty());
}

TEST(ServeProtocol, ReadFrameRoundTripsAPayload) {
  TestPipe pipe;
  const std::string frame = serve::encode_frame("{\"op\":\"ping\"}");
  pipe.write_bytes(frame.data(), frame.size());
  std::string payload;
  ASSERT_EQ(serve::read_frame(pipe.fds[0], payload),
            serve::FrameStatus::kOk);
  EXPECT_EQ(payload, "{\"op\":\"ping\"}");
}

/// Sends one raw ping and expects a well-formed pong on the same
/// connection — the "still alive and in sync" probe the fuzz loop uses.
void expect_ping_ok(int fd) {
  ASSERT_TRUE(serve::write_frame(fd, "{\"id\":7,\"op\":\"ping\"}"));
  std::string payload;
  ASSERT_EQ(serve::read_frame(fd, payload), serve::FrameStatus::kOk);
  const Json response = Json::parse(payload);
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("id").as_number(), 7.0);
}

/// Reads one response and asserts it is a structured error envelope.
void expect_error_reply(int fd) {
  std::string payload;
  ASSERT_EQ(serve::read_frame(fd, payload), serve::FrameStatus::kOk);
  const Json response = Json::parse(payload);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_FALSE(response.at("error").at("code").as_string().empty());
  EXPECT_FALSE(response.at("error").at("message").as_string().empty());
}

TEST(ServeProtocol, FuzzMalformedInputNeverKillsTheDaemon) {
  const std::uint64_t seed = testprop::suite_seed(0x5EEDF00Dull);
  SCOPED_TRACE(testprop::repro(
      "ServeProtocol.FuzzMalformedInputNeverKillsTheDaemon", seed));
  util::Rng rng(seed);

  serve::ServerOptions options;
  options.socket_path = test_socket("fuzz");
  options.threads = 1;
  serve::Server server(options);

  for (int iteration = 0; iteration < 48; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    util::Fd fd = util::unix_connect(options.socket_path);
    ASSERT_TRUE(fd.valid());
    switch (rng.below(6)) {
      case 0: {
        // Valid frame, garbage payload: structured error (bad_json, or
        // bad_request when the bytes happen to parse), stream stays in
        // sync.
        std::string junk;
        const std::size_t size = 1 + rng.below(64);
        for (std::size_t i = 0; i < size; ++i) {
          junk.push_back(static_cast<char>(rng.below(256)));
        }
        ASSERT_TRUE(serve::write_frame(fd.get(), junk));
        expect_error_reply(fd.get());
        expect_ping_ok(fd.get());
        break;
      }
      case 1: {
        // Truncated frame: header promises more than ever arrives, then
        // the client vanishes. The server must just drop the connection.
        unsigned char header[serve::kFrameHeaderBytes];
        serve::encode_frame_header(64 + rng.below(1024), header);
        ASSERT_TRUE(util::write_all(fd.get(), header, sizeof header));
        const std::string partial(rng.below(32), 'x');
        if (!partial.empty()) {
          ASSERT_TRUE(
              util::write_all(fd.get(), partial.data(), partial.size()));
        }
        break;  // close without finishing the frame
      }
      case 2: {
        // Oversized length header: structured error, then the server
        // closes (the stream position is unknowable past this point).
        unsigned char header[serve::kFrameHeaderBytes];
        serve::encode_frame_header(
            serve::kMaxFrameBytes + 1 + rng.below(1u << 20), header);
        ASSERT_TRUE(util::write_all(fd.get(), header, sizeof header));
        expect_error_reply(fd.get());
        std::string rest;
        EXPECT_EQ(serve::read_frame(fd.get(), rest),
                  serve::FrameStatus::kClosed);
        break;
      }
      case 3: {
        // Zero-length frame: invalid but unambiguous — error reply and
        // the connection keeps working.
        const unsigned char header[serve::kFrameHeaderBytes] = {0, 0, 0, 0};
        ASSERT_TRUE(util::write_all(fd.get(), header, sizeof header));
        expect_error_reply(fd.get());
        expect_ping_ok(fd.get());
        break;
      }
      case 4: {
        // Interleaved partial writes: a valid request dribbled one byte
        // at a time must parse exactly like one write.
        const std::string frame =
            serve::encode_frame("{\"id\":\"slow\",\"op\":\"ping\"}");
        for (const char byte : frame) {
          ASSERT_TRUE(util::write_all(fd.get(), &byte, 1));
        }
        std::string payload;
        ASSERT_EQ(serve::read_frame(fd.get(), payload),
                  serve::FrameStatus::kOk);
        const Json response = Json::parse(payload);
        EXPECT_TRUE(response.at("ok").as_bool());
        EXPECT_EQ(response.at("id").as_string(), "slow");
        break;
      }
      case 5: {
        // Well-formed JSON, malformed request: wrong root type, unknown
        // op, or an op with junk keys — always a structured error.
        static const char* kBadRequests[] = {
            "[1,2,3]",
            "\"ping\"",
            "{\"op\":\"conquer\"}",
            "{\"op\":\"ping\",\"flux\":1}",
            "{\"op\":\"optimize\"}",
            "{\"op\":\"optimize\",\"system\":\"D3\",\"optimizer\":"
            "{\"warp\":9}}",
            "{\"op\":\"predict\",\"system\":\"D3\"}",
            "{\"op\":\"scenario\"}",
        };
        const char* request = kBadRequests[rng.below(std::size(kBadRequests))];
        ASSERT_TRUE(serve::write_frame(fd.get(), request));
        expect_error_reply(fd.get());
        expect_ping_ok(fd.get());
        break;
      }
      default:
        FAIL() << "unreachable fuzz mode";
    }
  }

  // Liveness after the storm: a fresh well-formed client gets service.
  serve::Client client(options.socket_path);
  Json::Object ping;
  ping["op"] = Json("ping");
  const Json response = client.call(Json(std::move(ping)));
  EXPECT_TRUE(response.at("ok").as_bool());

  // An unknown envelope key is a bad_request naming the key and the op.
  for (const std::string op :
       {"ping", "stats", "shutdown", "optimize", "predict", "scenario"}) {
    const Json rejected = Json::parse(
        client.call_raw("{\"op\":\"" + op + "\",\"flux\":1}"));
    EXPECT_FALSE(rejected.at("ok").as_bool()) << op;
    EXPECT_EQ(rejected.at("error").at("code").as_string(), "bad_request")
        << op;
    const std::string message =
        rejected.at("error").at("message").as_string();
    EXPECT_NE(message.find("unknown key \"flux\" in request op " + op),
              std::string::npos)
        << message;
  }
  EXPECT_FALSE(server.draining());  // the rejected shutdown stopped nothing

  // Settings the optimizer no longer has are unknown keys: a bad_request
  // naming the key, in an optimize request and in a scenario spec alike.
  for (const std::string key : {"lane_batch", "prune"}) {
    const std::string optimizer = "{\"" + key + "\":false}";
    for (const std::string& request :
         {"{\"op\":\"optimize\",\"system\":\"D3\",\"optimizer\":" +
              optimizer + "}",
          "{\"op\":\"scenario\",\"spec\":{\"system\":\"D3\","
          "\"optimizer\":" +
              optimizer + "}}"}) {
      const Json rejected = Json::parse(client.call_raw(request));
      EXPECT_FALSE(rejected.at("ok").as_bool()) << request;
      EXPECT_EQ(rejected.at("error").at("code").as_string(), "bad_request")
          << request;
      EXPECT_NE(rejected.at("error").at("message").as_string().find(key),
                std::string::npos)
          << request;
    }
  }

  // A parameter of another law is a bad_request naming it, as --law does.
  const Json mismatched = Json::parse(client.call_raw(
      "{\"op\":\"optimize\",\"system\":\"D3\",\"failure\":"
      "{\"law\":\"lognormal\",\"shape\":0.7}}"));
  EXPECT_FALSE(mismatched.at("ok").as_bool());
  EXPECT_EQ(mismatched.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(mismatched.at("error").at("message").as_string().find(
                "unknown key \"shape\" for law lognormal"),
            std::string::npos)
      << mismatched.at("error").at("message").as_string();
  server.stop();
}

}  // namespace
}  // namespace mlck
