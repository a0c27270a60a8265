// Tests for the serving transport and concurrency core: wire-protocol
// round-trips and decode hardening (truncation, bit flips, bad tags),
// FrameAssembler reassembly from arbitrarily-chunked streams, shard
// routing determinism, ShardSet admission control and drain guarantees,
// publish-while-serving bitwise consistency, and socket end-to-end
// passes against a live Server through the shared client
// (serve/client.h): both load drivers, response validation and the Zipf
// user picker.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/interest_store.h"
#include "models/msr_model.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/recommend.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace imsr::serve {
namespace {

// Runs a complete encoded frame through the assembler and returns its
// CRC-verified payload.
std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& frame) {
  FrameAssembler assembler;
  assembler.Append(frame.data(), frame.size());
  std::vector<uint8_t> payload;
  std::string error;
  EXPECT_EQ(assembler.Next(&payload, &error), FrameAssembler::Result::kFrame)
      << error;
  return payload;
}

RequestFrame MakeRequest(uint64_t id, data::UserId user, int top_n) {
  RequestFrame request;
  request.request_id = id;
  request.user = user;
  request.top_n = top_n;
  return request;
}

TEST(ProtocolTest, RequestRoundTrip) {
  const RequestFrame request = MakeRequest(0xfeedfacecafe, 123456, 20);
  const std::vector<uint8_t> payload = PayloadOf(EncodeRequest(request));
  RequestFrame decoded;
  std::string error;
  ASSERT_TRUE(TryDecodeRequest(payload, &decoded, &error)) << error;
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.user, request.user);
  EXPECT_EQ(decoded.top_n, request.top_n);
}

TEST(ProtocolTest, ResponseRoundTripAllStatuses) {
  for (const ResponseStatus status :
       {ResponseStatus::kOk, ResponseStatus::kError,
        ResponseStatus::kOverloaded, ResponseStatus::kShuttingDown}) {
    ResponseFrame response;
    response.request_id = 77;
    response.status = status;
    response.snapshot_version = 42;
    if (status == ResponseStatus::kOk) {
      response.items = {{5, 1.5f}, {9, 0.25f}, {1, -3.75f}};
    } else {
      response.error = "reason: " + std::string(ResponseStatusName(status));
    }
    const std::vector<uint8_t> payload = PayloadOf(EncodeResponse(response));
    ResponseFrame decoded;
    std::string error;
    ASSERT_TRUE(TryDecodeResponse(payload, &decoded, &error)) << error;
    EXPECT_EQ(decoded.request_id, response.request_id);
    EXPECT_EQ(decoded.status, response.status);
    EXPECT_EQ(decoded.snapshot_version, response.snapshot_version);
    EXPECT_EQ(decoded.items, response.items);
    EXPECT_EQ(decoded.error, response.error);
  }
}

// Scores round-trip bitwise, including non-finite-adjacent values.
TEST(ProtocolTest, ResponseScoresBitwiseExact) {
  ResponseFrame response;
  response.request_id = 1;
  response.status = ResponseStatus::kOk;
  response.items = {{0, 1.0000001f},
                    {1, -0.0f},
                    {2, 3.4028235e38f},
                    {3, 1.1754944e-38f}};
  const std::vector<uint8_t> payload = PayloadOf(EncodeResponse(response));
  ResponseFrame decoded;
  std::string error;
  ASSERT_TRUE(TryDecodeResponse(payload, &decoded, &error)) << error;
  ASSERT_EQ(decoded.items.size(), response.items.size());
  for (size_t i = 0; i < response.items.size(); ++i) {
    EXPECT_EQ(decoded.items[i].first, response.items[i].first);
    // Bitwise, not value, equality (distinguishes -0.0 from 0.0).
    uint32_t want = 0;
    uint32_t got = 0;
    std::memcpy(&want, &response.items[i].second, sizeof(want));
    std::memcpy(&got, &decoded.items[i].second, sizeof(got));
    EXPECT_EQ(got, want);
  }
}

// Frames survive arbitrary chunking: two coalesced frames delivered one
// byte at a time come out intact and in order.
TEST(ProtocolTest, AssemblerReassemblesBytewiseStream) {
  std::vector<uint8_t> stream = EncodeRequest(MakeRequest(1, 10, 5));
  const std::vector<uint8_t> second = EncodeRequest(MakeRequest(2, 20, 7));
  stream.insert(stream.end(), second.begin(), second.end());

  FrameAssembler assembler;
  std::vector<RequestFrame> decoded;
  std::vector<uint8_t> payload;
  std::string error;
  for (const uint8_t byte : stream) {
    assembler.Append(&byte, 1);
    for (;;) {
      const FrameAssembler::Result result = assembler.Next(&payload, &error);
      if (result == FrameAssembler::Result::kNeedMore) break;
      ASSERT_EQ(result, FrameAssembler::Result::kFrame) << error;
      RequestFrame request;
      ASSERT_TRUE(TryDecodeRequest(payload, &request, &error)) << error;
      decoded.push_back(request);
    }
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].request_id, 1u);
  EXPECT_EQ(decoded[0].user, 10);
  EXPECT_EQ(decoded[1].request_id, 2u);
  EXPECT_EQ(decoded[1].top_n, 7);
  EXPECT_EQ(assembler.buffered(), 0u);
}

// A truncated stream never produces a frame — it just keeps asking for
// more bytes, at every prefix length.
TEST(ProtocolTest, TruncationNeverCompletesAFrame) {
  const std::vector<uint8_t> frame =
      EncodeRequest(MakeRequest(9, 1234, 10));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    FrameAssembler assembler;
    assembler.Append(frame.data(), cut);
    std::vector<uint8_t> payload;
    std::string error;
    EXPECT_EQ(assembler.Next(&payload, &error),
              FrameAssembler::Result::kNeedMore)
        << "prefix of " << cut << " bytes completed a frame";
  }
}

// CRC-32 detects every single-bit error in the data it covers: flipping
// any payload bit (or any CRC-field bit) must surface as a framing error,
// never as a silently-different frame.
TEST(ProtocolTest, EveryPayloadBitFlipIsDetected) {
  const std::vector<uint8_t> frame =
      EncodeRequest(MakeRequest(0x123456789a, 987654, 50));
  // Bytes [4, 8) are the CRC field; [8, size) the payload.
  for (size_t byte = 4; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupted = frame;
      corrupted[byte] ^= static_cast<uint8_t>(1u << bit);
      FrameAssembler assembler;
      assembler.Append(corrupted.data(), corrupted.size());
      std::vector<uint8_t> payload;
      std::string error;
      EXPECT_EQ(assembler.Next(&payload, &error),
                FrameAssembler::Result::kError)
          << "bit " << bit << " of byte " << byte << " went undetected";
    }
  }
}

TEST(ProtocolTest, OversizedLengthIsAFramingError) {
  const uint32_t length = kMaxFramePayload + 1;
  uint8_t header[kFrameHeaderBytes] = {};
  std::memcpy(header, &length, sizeof(length));
  FrameAssembler assembler;
  assembler.Append(header, sizeof(header));
  std::vector<uint8_t> payload;
  std::string error;
  EXPECT_EQ(assembler.Next(&payload, &error),
            FrameAssembler::Result::kError);
  EXPECT_NE(error.find("exceeds limit"), std::string::npos) << error;
}

TEST(ProtocolTest, DecodeRejectsMalformedPayloads) {
  const std::vector<uint8_t> request_payload =
      PayloadOf(EncodeRequest(MakeRequest(3, 42, 5)));
  RequestFrame request;
  ResponseFrame response;
  std::string error;

  // A request payload is not a response (and vice versa): tag mismatch.
  EXPECT_FALSE(TryDecodeResponse(request_payload, &response, &error));
  ResponseFrame ok_response;
  ok_response.status = ResponseStatus::kOk;
  const std::vector<uint8_t> response_payload =
      PayloadOf(EncodeResponse(ok_response));
  EXPECT_FALSE(TryDecodeRequest(response_payload, &request, &error));

  // Truncated payload bytes (CRC already verified upstream — decode must
  // still fail cleanly, not read out of bounds).
  for (size_t cut = 0; cut < request_payload.size(); ++cut) {
    const std::vector<uint8_t> truncated(request_payload.begin(),
                                         request_payload.begin() + cut);
    EXPECT_FALSE(TryDecodeRequest(truncated, &request, &error))
        << "decoded from " << cut << " of " << request_payload.size()
        << " bytes";
  }

  // Trailing garbage after a well-formed body.
  std::vector<uint8_t> padded = request_payload;
  padded.push_back(0);
  EXPECT_FALSE(TryDecodeRequest(padded, &request, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  // Empty payload.
  EXPECT_FALSE(TryDecodeRequest({}, &request, &error));
}

TEST(ShardRoutingTest, DeterministicInRangeAndBalanced) {
  for (const size_t shards : {1u, 2u, 4u, 7u}) {
    std::vector<int> counts(shards, 0);
    for (data::UserId user = 0; user < 10000; ++user) {
      const size_t shard = ShardOf(user, shards);
      ASSERT_LT(shard, shards);
      // Routing is a pure function of (user, num_shards).
      ASSERT_EQ(shard, ShardOf(user, shards));
      counts[shard]++;
    }
    // splitmix64 scrambles sequential ids: no shard is starved or hot
    // beyond 2x of fair share.
    for (const int count : counts) {
      EXPECT_GT(count, 10000 / static_cast<int>(shards) / 2);
      EXPECT_LT(count, 2 * 10000 / static_cast<int>(shards));
    }
  }
}

// --- ShardSet ---------------------------------------------------------------

// Thread-safe sink recording every response it receives.
class CollectSink : public ResponseSink {
 public:
  void SendResponse(const ResponseFrame& response) override {
    std::lock_guard<std::mutex> lock(mutex_);
    responses_.push_back(response);
  }
  std::vector<ResponseFrame> responses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return responses_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<ResponseFrame> responses_;
};

// A sink whose first SendResponse blocks until Release() — wedges a shard
// worker so the test can fill its queue deterministically.
class BlockingSink : public CollectSink {
 public:
  void SendResponse(const ResponseFrame& response) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      entered_ = true;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    }
    CollectSink::SendResponse(response);
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  bool entered_ = false;
  bool released_ = false;
};

// A small serving world: `num_users` users with varying interest counts
// (k_base + user % 3) over `num_items` items. k_base >= 8 puts every
// user on the wide-output kernel dispatch; with_index attaches an IVF
// index so the kIVF retrieval path has something to probe.
std::shared_ptr<ServingSnapshot> MakeSnapshot(int num_items, int num_users,
                                              int dim, uint64_t seed,
                                              int span, int k_base = 1,
                                              bool with_index = false) {
  models::ModelConfig model_config;
  model_config.embedding_dim = dim;
  models::MsrModel model(model_config, num_items, seed);
  core::InterestStore store;
  util::Rng rng(seed + 1);
  for (data::UserId user = 0; user < num_users; ++user) {
    store.Initialize(user, k_base + static_cast<int>(user % 3), dim, 0,
                     rng);
  }
  if (with_index) {
    return BuildSnapshot(model, store, span, IvfBuildConfig{});
  }
  return BuildSnapshot(model, store, span);
}

TEST(ShardSetTest, AnswersEveryAdmittedRequest) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(/*num_items=*/50, /*num_users=*/40,
                                /*dim=*/8, /*seed=*/3, /*span=*/1));
  ShardSetConfig config;
  config.num_shards = 4;
  // Cap >= kRequests: admission can never fire even if a busy machine
  // keeps every worker descheduled while the main thread enqueues.
  config.queue_cap = 256;
  ShardSet shards(&registry, config);
  shards.Start();

  auto sink = std::make_shared<CollectSink>();
  const int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(shards.Submit(
        MakeRequest(static_cast<uint64_t>(i), i % 40, 5), sink));
  }
  shards.Drain();

  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  std::vector<bool> seen(kRequests, false);
  for (const ResponseFrame& response : responses) {
    ASSERT_LT(response.request_id, static_cast<uint64_t>(kRequests));
    EXPECT_FALSE(seen[response.request_id]) << "duplicate response";
    seen[response.request_id] = true;
    EXPECT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.items.size(), 5u);
    EXPECT_EQ(response.snapshot_version, 1u);
  }
  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.answered, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ShardSetTest, UnknownUserGetsErrorResponseNotDrop) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(50, 10, 8, 4, 1));
  ShardSetConfig config;
  config.num_shards = 2;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();
  EXPECT_TRUE(shards.Submit(MakeRequest(7, /*user=*/9999, 5), sink));
  shards.Drain();
  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].request_id, 7u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kError);
  EXPECT_NE(responses[0].error.find("9999"), std::string::npos);
}

TEST(ShardSetTest, NoSnapshotYetIsAnErrorResponse) {
  SnapshotRegistry registry;  // nothing published
  ShardSetConfig config;
  config.num_shards = 1;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();
  EXPECT_TRUE(shards.Submit(MakeRequest(1, 0, 5), sink));
  shards.Drain();
  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kError);
  EXPECT_NE(responses[0].error.find("snapshot"), std::string::npos);
}

// Admission control: with the single shard's worker wedged and its queue
// full, the next Submit is rejected synchronously with kOverloaded — the
// queue never grows past its cap and nothing is silently dropped.
TEST(ShardSetTest, FullQueueRejectsWithOverload) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(50, 10, 8, 5, 1));
  ShardSetConfig config;
  config.num_shards = 1;
  config.queue_cap = 2;
  ShardSet shards(&registry, config);
  shards.Start();

  auto blocking = std::make_shared<BlockingSink>();
  auto sink = std::make_shared<CollectSink>();
  // Wedge the worker on request 0's response...
  ASSERT_TRUE(shards.Submit(MakeRequest(0, 0, 3), blocking));
  blocking->AwaitEntered();
  // ...fill the queue to its cap...
  ASSERT_TRUE(shards.Submit(MakeRequest(1, 1, 3), sink));
  ASSERT_TRUE(shards.Submit(MakeRequest(2, 2, 3), sink));
  // ...and the next submit must bounce, synchronously, on this thread.
  EXPECT_FALSE(shards.Submit(MakeRequest(3, 3, 3), sink));
  std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].request_id, 3u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kOverloaded);

  blocking->Release();
  shards.Drain();
  // Everything admitted before the bounce still got answered.
  EXPECT_EQ(blocking->responses().size(), 1u);
  responses = sink->responses();
  ASSERT_EQ(responses.size(), 3u);
  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.answered, 3u);
}

// The heart of the tentpole's consistency claim: while snapshots publish
// mid-flight, every response is bitwise-identical to RecommendOne run
// directly against *some* published snapshot — the one named by the
// response's snapshot_version. No response mixes two versions.
TEST(ShardSetTest, PublishWhileServingIsBitwiseConsistent) {
  const int kUsers = 30;
  const int kTopN = 8;
  const std::shared_ptr<ServingSnapshot> v1 =
      MakeSnapshot(/*num_items=*/80, kUsers, /*dim=*/8, /*seed=*/11,
                   /*span=*/1);
  const std::shared_ptr<ServingSnapshot> v2 =
      MakeSnapshot(/*num_items=*/80, kUsers, /*dim=*/8, /*seed=*/29,
                   /*span=*/2);
  SnapshotRegistry registry;
  registry.Publish(v1);

  // Expected answers per user, per version, computed single-threaded.
  const ServeConfig serve;
  std::map<uint64_t, std::vector<std::vector<std::pair<data::ItemId, float>>>>
      expected;
  RecommendScratch scratch;
  for (const auto& [version, snapshot] :
       std::vector<std::pair<uint64_t, std::shared_ptr<ServingSnapshot>>>{
           {1, v1}, {2, v2}}) {
    auto& per_user = expected[version];
    per_user.resize(kUsers);
    for (data::UserId user = 0; user < kUsers; ++user) {
      RecommendRequest request;
      request.user = user;
      request.top_n = kTopN;
      RecommendResponse response;
      RecommendOne(*snapshot, request, serve, &scratch, &response);
      ASSERT_TRUE(response.ok) << response.error;
      per_user[static_cast<size_t>(user)] = response.items;
    }
  }

  ShardSetConfig config;
  config.num_shards = 4;
  config.queue_cap = 1024;
  config.serve = serve;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();

  // Phase 1 entirely against v1, then publish v2 into the *live* shard
  // set (workers stay up throughout), then phase 2 entirely against v2.
  // The phase boundary makes the expected version per request
  // deterministic; mid-flight racing is exercised by the server smoke
  // and the loadgen CI job.
  const int kPerPhase = 300;
  for (int i = 0; i < kPerPhase; ++i) {
    ASSERT_TRUE(shards.Submit(
        MakeRequest(static_cast<uint64_t>(i), i % kUsers, kTopN), sink));
  }
  while (shards.stats().answered <
         static_cast<uint64_t>(kPerPhase)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  registry.Publish(v2);
  for (int i = kPerPhase; i < 2 * kPerPhase; ++i) {
    ASSERT_TRUE(shards.Submit(
        MakeRequest(static_cast<uint64_t>(i), i % kUsers, kTopN), sink));
  }
  shards.Drain();

  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), static_cast<size_t>(2 * kPerPhase));
  for (const ResponseFrame& response : responses) {
    ASSERT_EQ(response.status, ResponseStatus::kOk) << response.error;
    const uint64_t want_version =
        response.request_id < static_cast<uint64_t>(kPerPhase) ? 1 : 2;
    ASSERT_EQ(response.snapshot_version, want_version)
        << "request " << response.request_id;
    const size_t user = response.request_id % kUsers;
    // EXPECT_EQ on vector<pair<ItemId, float>>: item ids and float scores
    // must match bitwise — no tolerance.
    EXPECT_EQ(response.items, expected[want_version][user])
        << "request " << response.request_id << " answered from v"
        << want_version << " diverged";
  }
}

// RecommendBatch is the worker's fused scoring entry point; its contract
// is bitwise identity with per-request RecommendOne. Exercised across
// the kernel-dispatch regimes (narrow K, wide K) and the IVF shortlist
// path, with duplicate (user, top_n) pairs, defaulted top_n, and an
// unknown user mixed into the batch, at batch sizes 1 and N.
TEST(RecommendBatchTest, BitwiseMatchesRecommendOne) {
  struct Case {
    const char* name;
    int k_base;
    bool with_index;
    RetrievalMode retrieval;
  };
  const std::vector<Case> cases = {
      {"exact_narrow", 1, false, RetrievalMode::kExact},
      {"exact_wide", 9, false, RetrievalMode::kExact},
      {"ivf", 1, true, RetrievalMode::kIVF},
  };
  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    const std::shared_ptr<ServingSnapshot> snapshot = MakeSnapshot(
        /*num_items=*/120, /*num_users=*/12, /*dim=*/8, /*seed=*/41,
        /*span=*/1, test_case.k_base, test_case.with_index);
    ServeConfig config;
    config.default_top_n = 7;
    config.retrieval = test_case.retrieval;

    std::vector<RecommendRequest> requests;
    auto add = [&requests](data::UserId user, int top_n) {
      RecommendRequest request;
      request.user = user;
      request.top_n = top_n;
      requests.push_back(request);
    };
    add(0, 5);
    add(3, 9);
    add(0, 5);     // duplicate of request 0: copied, not re-scored
    add(7, 0);     // defaulted top_n
    add(9999, 5);  // unknown user: per-request error, batch survives
    add(7, 7);     // duplicate of request 3 after default resolution
    add(11, 120);  // top_n == corpus size
    add(3, 4);     // same user, different top_n: distinct answer

    RecommendScratch single_scratch;
    std::vector<RecommendResponse> expected(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      RecommendOne(*snapshot, requests[i], config, &single_scratch,
                   &expected[i]);
    }

    RecommendScratch batch_scratch;
    std::vector<RecommendResponse> got(requests.size());
    RecommendBatch(*snapshot, requests.data(), requests.size(), config,
                   &batch_scratch, got.data());
    for (size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      EXPECT_EQ(got[i].ok, expected[i].ok);
      EXPECT_EQ(got[i].error, expected[i].error);
      // EXPECT_EQ on vector<pair<ItemId, float>> is exact — identical
      // item order and float bits, no tolerance.
      EXPECT_EQ(got[i].items, expected[i].items);
    }

    // A batch of one is the degenerate case the batch_max=1 server
    // configuration runs permanently.
    for (size_t i = 0; i < requests.size(); ++i) {
      RecommendResponse one;
      RecommendBatch(*snapshot, &requests[i], 1, config, &batch_scratch,
                     &one);
      EXPECT_EQ(one.ok, expected[i].ok);
      EXPECT_EQ(one.error, expected[i].error);
      EXPECT_EQ(one.items, expected[i].items);
    }
  }
}

// Micro-batched draining must be invisible in the bytes on the wire:
// every response frame a batching worker produces is byte-identical to
// the frame a batch_max=1 worker (the PR 9 loop) would have produced.
// A wedged sink forces a deep queue so real multi-request batches form.
TEST(ShardSetTest, BatchedResponsesBitwiseEqualSingleRequestFrames) {
  const int kUsers = 10;
  const std::shared_ptr<ServingSnapshot> snapshot = MakeSnapshot(
      /*num_items=*/90, kUsers, /*dim=*/8, /*seed=*/23, /*span=*/1,
      /*k_base=*/9);
  // Oracle frames from direct RecommendOne calls — what the unbatched
  // worker would have sent.
  const ServeConfig serve;
  RecommendScratch scratch;
  auto oracle_frame = [&](const RequestFrame& request) {
    RecommendRequest single;
    single.user = request.user;
    single.top_n = request.top_n;
    RecommendResponse response;
    RecommendOne(*snapshot, single, serve, &scratch, &response);
    ResponseFrame frame;
    frame.request_id = request.request_id;
    frame.snapshot_version = 1;
    if (response.ok) {
      frame.status = ResponseStatus::kOk;
      frame.items = response.items;
    } else {
      frame.status = ResponseStatus::kError;
      frame.error = response.error;
    }
    return frame;
  };

  std::vector<RequestFrame> requests;
  for (int i = 0; i < 24; ++i) {
    // Duplicates (user repeats every kUsers), a defaulted top_n, and an
    // unknown user all ride inside the forced batches.
    const int top_n = i % 6 == 5 ? 0 : 3 + i % 4;
    const data::UserId user = i % 8 == 7 ? 9999 : i % kUsers;
    requests.push_back(MakeRequest(static_cast<uint64_t>(i), user, top_n));
  }

  for (const int num_shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    SnapshotRegistry registry;
    registry.Publish(snapshot);
    ShardSetConfig config;
    config.num_shards = num_shards;
    config.queue_cap = 64;
    config.batch_max = 6;
    config.serve = serve;
    ShardSet shards(&registry, config);
    shards.Start();

    // Wedge one worker on a throwaway request so the queue behind it
    // deepens; its release drains the backlog in multi-request batches.
    auto blocking = std::make_shared<BlockingSink>();
    ASSERT_TRUE(shards.Submit(MakeRequest(1000, 0, 3), blocking));
    blocking->AwaitEntered();
    auto sink = std::make_shared<CollectSink>();
    for (const RequestFrame& request : requests) {
      ASSERT_TRUE(shards.Submit(request, sink));
    }
    blocking->Release();
    shards.Drain();

    const std::vector<ResponseFrame> responses = sink->responses();
    ASSERT_EQ(responses.size(), requests.size());
    for (const ResponseFrame& response : responses) {
      ASSERT_LT(response.request_id, requests.size());
      const ResponseFrame want =
          oracle_frame(requests[response.request_id]);
      // memcmp-level identity: the full encoded frame, not just fields.
      EXPECT_EQ(EncodeResponse(response), EncodeResponse(want))
          << "request " << response.request_id;
    }
    if (num_shards == 1) {
      // 24 queued requests behind the wedge with batch_max=6 cannot
      // legally drain one at a time.
      const ShardSetStats stats = shards.stats();
      EXPECT_LT(stats.batches, stats.answered);
    }
  }
}

// A cache hit must be invisible to the client: byte-identical frame to
// the cold scored response, and a defaulted top_n shares the entry of
// the equivalent explicit request (resolved top_n is in the key).
TEST(ShardSetTest, CacheHitIsBitwiseIdenticalToColdScore) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(80, 12, 8, 31, 1));
  ShardSetConfig config;
  config.num_shards = 1;
  config.batch_max = 1;
  config.cache_bytes = 1 << 20;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();

  // Same request_id on purpose: frames must be memcmp-equal end to end.
  ASSERT_TRUE(shards.Submit(MakeRequest(1, 4, 10), sink));
  while (shards.stats().answered < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(shards.Submit(MakeRequest(1, 4, 10), sink));
  while (shards.stats().answered < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // top_n=0 resolves to default_top_n=10: hits the same entry.
  ASSERT_TRUE(shards.Submit(MakeRequest(2, 4, 0), sink));
  shards.Drain();

  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kOk);
  EXPECT_EQ(EncodeResponse(responses[1]), EncodeResponse(responses[0]));
  EXPECT_EQ(responses[2].items, responses[0].items);
  EXPECT_EQ(responses[2].snapshot_version, responses[0].snapshot_version);

  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_GT(stats.cache_bytes, 0u);
}

// Publishing a snapshot with different scoring content must invalidate
// every cached answer: the data epoch advances and is in the key, so the
// next identical request re-scores against the new snapshot and can
// never be served a stale entry.
TEST(ShardSetTest, PublishInvalidatesCacheAndForcesRescore) {
  const std::shared_ptr<ServingSnapshot> v1 =
      MakeSnapshot(80, 12, 8, 31, /*span=*/1);
  const std::shared_ptr<ServingSnapshot> v2 =
      MakeSnapshot(80, 12, 8, 57, /*span=*/2);
  const ServeConfig serve;
  RecommendScratch scratch;
  RecommendRequest probe;
  probe.user = 5;
  probe.top_n = 8;
  RecommendResponse want_v1;
  RecommendOne(*v1, probe, serve, &scratch, &want_v1);
  RecommendResponse want_v2;
  RecommendOne(*v2, probe, serve, &scratch, &want_v2);
  ASSERT_TRUE(want_v1.ok);
  ASSERT_TRUE(want_v2.ok);
  // Different seeds: the two snapshots really do rank differently, so a
  // stale cache hit would be visible below.
  ASSERT_NE(want_v1.items, want_v2.items);

  SnapshotRegistry registry;
  registry.Publish(v1);
  ShardSetConfig config;
  config.num_shards = 1;
  config.batch_max = 1;
  config.cache_bytes = 1 << 20;
  config.serve = serve;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();

  ASSERT_TRUE(shards.Submit(MakeRequest(0, probe.user, probe.top_n), sink));
  while (shards.stats().answered < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(shards.Submit(MakeRequest(1, probe.user, probe.top_n), sink));
  while (shards.stats().answered < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  registry.Publish(v2);
  ASSERT_TRUE(shards.Submit(MakeRequest(2, probe.user, probe.top_n), sink));
  shards.Drain();

  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].snapshot_version, 1u);
  EXPECT_EQ(responses[0].items, want_v1.items);
  EXPECT_EQ(responses[1].snapshot_version, 1u);
  EXPECT_EQ(responses[1].items, want_v1.items);
  EXPECT_EQ(responses[2].snapshot_version, 2u);
  EXPECT_EQ(responses[2].items, want_v2.items);

  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.cache_hits, 1u);   // request 1, against v1
  EXPECT_EQ(stats.cache_misses, 2u);  // requests 0 and 2
}

// The flip side: a publish whose scoring content is bitwise identical to
// the live snapshot's (the timed-republish deployment — a fresh export
// of an unchanged model) carries the data epoch forward, so cached
// answers stay valid across it. The next identical request is a HIT,
// served under the NEW snapshot's version, with items equal to the cold
// score — sound because equal epoch certifies the two snapshots score
// every request bitwise identically.
TEST(ShardSetTest, RepublishUnchangedContentKeepsCacheWarm) {
  const std::shared_ptr<ServingSnapshot> v1 =
      MakeSnapshot(80, 12, 8, 31, /*span=*/1);
  const std::shared_ptr<ServingSnapshot> v2 =
      MakeSnapshot(80, 12, 8, 31, /*span=*/2);
  SnapshotRegistry registry;
  registry.Publish(v1);
  ShardSetConfig config;
  config.num_shards = 1;
  config.batch_max = 1;
  config.cache_bytes = 1 << 20;
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();

  ASSERT_TRUE(shards.Submit(MakeRequest(0, 5, 8), sink));
  while (shards.stats().answered < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  registry.Publish(v2);
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v2->data_epoch(), v1->data_epoch());
  ASSERT_TRUE(shards.Submit(MakeRequest(1, 5, 8), sink));
  shards.Drain();

  const std::vector<ResponseFrame> responses = sink->responses();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, ResponseStatus::kOk);
  EXPECT_EQ(responses[0].snapshot_version, 1u);
  // The warm hit answers under the new version with the same items.
  EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
  EXPECT_EQ(responses[1].snapshot_version, 2u);
  EXPECT_EQ(responses[1].items, responses[0].items);

  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

// A tiny byte budget keeps the cache resident set bounded: distinct
// users churn through, evictions fire, and resident bytes never exceed
// the configured budget.
TEST(ShardSetTest, CacheEvictsUnderTinyByteBudget) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(80, 64, 8, 13, 1));
  ShardSetConfig config;
  config.num_shards = 1;
  config.batch_max = 1;
  config.cache_bytes = 400;  // room for ~2 entries
  ShardSet shards(&registry, config);
  shards.Start();
  auto sink = std::make_shared<CollectSink>();
  const int kRequests = 50;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(shards.Submit(
        MakeRequest(static_cast<uint64_t>(i), i % 64, 5), sink));
  }
  shards.Drain();

  ASSERT_EQ(sink->responses().size(), static_cast<size_t>(kRequests));
  const ShardSetStats stats = shards.stats();
  EXPECT_EQ(stats.cache_misses, static_cast<uint64_t>(kRequests));
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.cache_bytes, config.cache_bytes);
  EXPECT_GT(stats.cache_bytes, 0u);
}

// --- Server end-to-end, through the shared client ---------------------------

// A Server answering on its own I/O thread until the fixture goes out of
// scope. An empty `unix_path` listens on an ephemeral TCP port.
class LiveServer {
 public:
  LiveServer(const SnapshotRegistry* registry, const std::string& unix_path,
             int queue_cap = 256)
      : server_(registry, MakeConfig(unix_path, queue_cap)) {
    std::string error;
    const bool started = server_.Start(&error);
    EXPECT_TRUE(started) << error;
    if (started) io_ = std::thread([this] { server_.Run(); });
  }
  ~LiveServer() { Stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  void Stop() {
    if (!io_.joinable()) return;
    server_.Shutdown();
    io_.join();
  }
  Endpoint endpoint() const {
    Endpoint endpoint;
    endpoint.unix_path = server_.unix_path();
    endpoint.port = server_.port();
    return endpoint;
  }
  const Server& server() const { return server_; }

 private:
  static ServerConfig MakeConfig(const std::string& unix_path,
                                 int queue_cap) {
    ServerConfig config;
    config.unix_path = unix_path;
    config.tcp_port = 0;  // ephemeral
    config.shards.num_shards = 2;
    config.shards.queue_cap = static_cast<size_t>(queue_cap);
    return config;
  }

  Server server_;
  std::thread io_;
};

TEST(ServerTest, SocketEndToEnd) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(60, 20, 8, 17, 1));
  LiveServer live(&registry, "");
  ASSERT_GT(live.endpoint().port, 0);
  const auto collect = [](std::map<uint64_t, ResponseFrame>* out) {
    return [out](int, const ResponseFrame& response, double) {
      (*out)[response.request_id] = response;
    };
  };

  {
    // Two good requests and one for an unknown user, queued before the
    // first Poll so they leave in a single write (stream reassembly
    // server-side).
    Client client(live.endpoint(), 1);
    ASSERT_FALSE(client.broken()) << client.stats().first_failure;
    const Client::Clock::time_point now = Client::Clock::now();
    EXPECT_EQ(client.Send(0, 3, 4, now), 1u);
    EXPECT_EQ(client.Send(0, 9999, 4, now), 2u);
    EXPECT_EQ(client.Send(0, 7, 6, now), 3u);
    std::map<uint64_t, ResponseFrame> responses;
    client.Drain(collect(&responses));
    EXPECT_EQ(client.stats().failures, 0u) << client.stats().first_failure;
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
    EXPECT_EQ(responses[1].items.size(), 4u);
    EXPECT_EQ(responses[2].status, ResponseStatus::kError);
    EXPECT_EQ(responses[3].status, ResponseStatus::kOk);
    EXPECT_EQ(responses[3].items.size(), 6u);
    EXPECT_EQ(client.stats().ok, 2u);
    EXPECT_EQ(client.stats().errors, 1u);
  }

  {
    // A connection that sends garbage is dropped (framing error), while
    // the server keeps serving everyone else.
    std::string error;
    const int garbage = ConnectSocket(live.endpoint(), &error);
    ASSERT_GE(garbage, 0) << error;
    const std::vector<uint8_t> junk(64, 0xff);
    EXPECT_EQ(::send(garbage, junk.data(), junk.size(), MSG_NOSIGNAL), 64);
    uint8_t byte = 0;
    EXPECT_EQ(::recv(garbage, &byte, 1, 0), 0);  // EOF: the server hung up
    ::close(garbage);

    Client client(live.endpoint(), 1);
    client.Send(0, 5, 3, Client::Clock::now());
    std::map<uint64_t, ResponseFrame> responses;
    client.Drain(collect(&responses));
    EXPECT_EQ(client.stats().ok, 1u) << client.stats().first_failure;
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[1].status, ResponseStatus::kOk);
  }

  live.Stop();
  const ServerStats stats = live.server().stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.frames, 4u);
  EXPECT_GE(stats.protocol_errors, 1u);
  const ShardSetStats shard_stats = live.server().shard_stats();
  EXPECT_EQ(shard_stats.answered, 4u);
  EXPECT_EQ(shard_stats.rejected, 0u);
}

// Both drivers run to completion over TCP and a unix socket: every
// request sent, every response valid and counted once, and the callback
// sees each one. The queues hold every request a connection can have
// outstanding, so nothing is shed and all answers are ok.
TEST(ClientTest, ClosedAndOpenLoopsAnswerEveryRequest) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(80, 40, 8, 23, 1));
  const std::string unix_path =
      testing::TempDir() + "imsr_client_test_" + std::to_string(::getpid()) +
      ".sock";
  for (const std::string& path : {std::string(), unix_path}) {
    LiveServer live(&registry, path, /*queue_cap=*/1024);
    for (const bool open_loop : {false, true}) {
      SCOPED_TRACE((path.empty() ? "tcp " : "unix ") +
                   std::string(open_loop ? "open loop" : "closed loop"));
      LoadSpec spec;
      spec.endpoint = live.endpoint();
      spec.connections = 3;
      spec.requests = 601;  // not a multiple of the connection count
      spec.users = 40;
      spec.zipf = 0.9;
      spec.top_n = 5;
      spec.depth = 4;
      spec.burst_every = 16;
      spec.burst_size = 6;
      spec.rate = open_loop ? 6000.0 : 0.0;
      uint64_t seen = 0;
      const ClientStats stats = RunLoad(
          spec, [&seen](int, const ResponseFrame& response, double latency) {
            ++seen;
            EXPECT_EQ(response.items.size(), 5u);
            EXPECT_GE(latency, 0.0);
          });
      EXPECT_EQ(stats.failures, 0u) << stats.first_failure;
      EXPECT_EQ(stats.sent, spec.requests);
      EXPECT_EQ(stats.ok, spec.requests);
      EXPECT_EQ(seen, spec.requests);
    }
  }
}

// A 60-item snapshot cannot fill a top-100 answer: the server's ok
// response carries 60 items, which the client must count as a failure,
// never as ok, and keep away from the callback.
TEST(ClientTest, ShortOkResponseIsAValidationFailure) {
  SnapshotRegistry registry;
  registry.Publish(MakeSnapshot(60, 20, 8, 17, 1));
  LiveServer live(&registry, "");
  Client client(live.endpoint(), 1);
  client.Send(0, 3, 100, Client::Clock::now());
  uint64_t seen = 0;
  client.Drain([&seen](int, const ResponseFrame&, double) { ++seen; });
  EXPECT_FALSE(client.broken());
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(client.stats().ok, 0u);
  EXPECT_EQ(client.stats().failures, 1u);
  EXPECT_NE(client.stats().first_failure.find("60 items, want 100"),
            std::string::npos)
      << client.stats().first_failure;
  EXPECT_EQ(seen, 0u);
}

// A hand-written server on a unix socket for one client connection: it
// holds requests until `hold` have arrived, then answers every held and
// later request with `answer(request)` until the client hangs up.
class ScriptedPeer {
 public:
  using Answer = std::function<ResponseFrame(const RequestFrame&)>;

  ScriptedPeer(size_t hold, Answer answer)
      : hold_(hold), answer_(std::move(answer)) {
    endpoint_.unix_path = testing::TempDir() + "imsr_client_peer_" +
                          std::to_string(::getpid()) + ".sock";
    ::unlink(endpoint_.unix_path.c_str());
    listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::bind(listener_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listener_, 1), 0);
    thread_ = std::thread([this] { Run(); });
  }
  ~ScriptedPeer() {
    ::shutdown(listener_, SHUT_RDWR);  // unblocks an accept never served
    thread_.join();
    ::close(listener_);
    ::unlink(endpoint_.unix_path.c_str());
  }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  void Run() {
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) return;
    FrameAssembler in;
    std::vector<RequestFrame> held;
    std::vector<uint8_t> payload;
    std::string error;
    uint8_t buffer[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      in.Append(buffer, static_cast<size_t>(n));
      while (in.Next(&payload, &error) == FrameAssembler::Result::kFrame) {
        RequestFrame request;
        EXPECT_TRUE(TryDecodeRequest(payload, &request, &error)) << error;
        held.push_back(request);
      }
      if (answered_ + held.size() < hold_) continue;
      for (const RequestFrame& request : held) {
        const std::vector<uint8_t> bytes = EncodeResponse(answer_(request));
        EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
      }
      answered_ += held.size();
      held.clear();
    }
    ::close(fd);
  }

  Endpoint endpoint_;
  int listener_ = -1;
  size_t hold_;
  Answer answer_;
  size_t answered_ = 0;
  std::thread thread_;
};

// An ok answer whose items are (1, 2.0), (2, second).
ResponseFrame TopTwoAnswer(const RequestFrame& request, float second) {
  ResponseFrame response;
  response.request_id = request.request_id;
  response.status = ResponseStatus::kOk;
  response.items = {{1, 2.0f}, {2, second}};
  return response;
}

// Three top-2 answers: sorted, NaN second score, ascending. Only the
// first is valid; NaN must fail the order check like an inversion.
TEST(ClientTest, OkAnswerOutOfOrderOrNanIsAFailure) {
  ScriptedPeer peer(1, [](const RequestFrame& request) {
    const float second[] = {1.0f, std::numeric_limits<float>::quiet_NaN(),
                            3.0f};
    return TopTwoAnswer(request, second[request.user]);
  });
  Client client(peer.endpoint(), 1);
  for (data::UserId user = 0; user < 3; ++user) {
    client.Send(0, user, 2, Client::Clock::now());
  }
  uint64_t seen = 0;
  client.Drain([&seen](int, const ResponseFrame&, double) { ++seen; });
  EXPECT_FALSE(client.broken()) << client.stats().first_failure;
  EXPECT_EQ(client.stats().ok, 1u);
  EXPECT_EQ(client.stats().failures, 2u);
  EXPECT_EQ(seen, 1u);
  EXPECT_NE(client.stats().first_failure.find("not in descending order"),
            std::string::npos)
      << client.stats().first_failure;
}

// The open loop sends on its schedule alone: a peer that answers nothing
// until all 24 requests are in still gets every one of them, and the
// first request's latency, measured from its due time, spans the wait.
TEST(ClientTest, OpenLoopSendsWithoutWaitingForAnswers) {
  ScriptedPeer peer(24, [](const RequestFrame& request) {
    return TopTwoAnswer(request, 1.0f);
  });
  LoadSpec spec;
  spec.endpoint = peer.endpoint();
  spec.connections = 1;
  spec.requests = 24;
  spec.users = 5;
  spec.top_n = 2;
  spec.depth = 1;
  spec.rate = 2000.0;
  double first_ms = -1.0;
  double last_ms = -1.0;
  const ClientStats stats = RunLoad(
      spec, [&](int, const ResponseFrame& response, double latency_ms) {
        if (response.request_id == 1) first_ms = latency_ms;
        if (response.request_id == 24) last_ms = latency_ms;
      });
  EXPECT_EQ(stats.failures, 0u) << stats.first_failure;
  EXPECT_EQ(stats.ok, 24u);
  EXPECT_GT(first_ms, last_ms);
}

TEST(ClientTest, ZipfPickerBoundedRepeatableAndSkewed) {
  for (const uint64_t n : {1, 2, 3, 1000}) {
    for (const double theta : {0.0, 0.5, 0.9, 0.99}) {
      const ZipfPicker picker(n, theta);
      util::Rng rng(5);
      for (int i = 0; i < 2000; ++i) ASSERT_LT(picker.Next(&rng), n);
    }
  }
  const ZipfPicker picker(1000, 0.9);
  util::Rng first(42);
  util::Rng second(42);
  std::vector<uint64_t> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t rank = picker.Next(&first);
    ASSERT_EQ(rank, picker.Next(&second)) << "draw " << i;
    ++counts[rank];
  }
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(),
            0);
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);

  // Past the exact-sum cutoff the Euler-Maclaurin tail stands in for the
  // remaining terms; against the exact ascending sum it is within 1e-9.
  const uint64_t past_cutoff = ZipfPicker::kZetaExactTerms + 1000;
  for (const double theta : {0.5, 0.9, 0.99}) {
    double exact = 0.0;
    for (uint64_t i = 1; i <= past_cutoff; ++i) {
      exact += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    EXPECT_LE(std::abs(ZipfPicker::Zeta(past_cutoff, theta) - exact),
              1e-9 * exact)
        << "theta " << theta;
  }
  // So set-up no longer grows with n: two billion ids construct at once.
  const auto start = std::chrono::steady_clock::now();
  const ZipfPicker huge(2'000'000'000, 0.5);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(huge.Next(&rng), 2'000'000'000u);
}

}  // namespace
}  // namespace imsr::serve
