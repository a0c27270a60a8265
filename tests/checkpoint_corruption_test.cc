// Corruption-injection tests for the crash-safe checkpoint subsystem: no
// corrupt input — truncation at any byte, bit-flips anywhere, mismatched
// model shapes — may abort the process or mutate the destination state;
// every failure must surface as LoadCheckpoint() == false with a
// descriptive error. Also covers the refusal of the retired v1 layout,
// atomic-save semantics and --keep_checkpoints rotation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/serialization.h"

namespace imsr::core {
namespace {

models::ModelConfig TinyConfig(
    models::ExtractorKind kind = models::ExtractorKind::kComiRecDr) {
  models::ModelConfig config;
  config.kind = kind;
  config.embedding_dim = 8;
  config.attention_dim = 6;
  return config;
}

constexpr int64_t kNumItems = 40;

// A small trained-looking state: deterministic model parameters plus a
// store with heterogeneous interest counts and birth spans.
void FillState(models::MsrModel* model, InterestStore* store) {
  util::Rng rng(9);
  for (data::UserId user = 0; user < 5; ++user) {
    const int64_t k = 2 + user % 3;
    store->Initialize(user, k, model->config().embedding_dim, 0, rng);
    store->Append(user,
                  nn::Tensor::Randn({1, model->config().embedding_dim}, rng),
                  /*span=*/user % 2 + 1);
    model->extractor().EnsureUserCapacity(user, k + 1, rng, nullptr);
  }
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in));
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out));
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<bool>(in);
}

// The destination state a failed load must never touch.
struct Fingerprint {
  nn::Tensor embeddings;
  size_t store_users;

  static Fingerprint Of(const models::MsrModel& model,
                        const InterestStore& store) {
    return {model.embeddings().parameter().value().Clone(),
            store.num_users()};
  }

  void ExpectUnchanged(const models::MsrModel& model,
                       const InterestStore& store,
                       const std::string& context) const {
    EXPECT_EQ(nn::MaxAbsDiff(embeddings,
                             model.embeddings().parameter().value()),
              0.0f)
        << context;
    EXPECT_EQ(store.num_users(), store_users) << context;
  }
};

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/imsr_ckpt_corruption_test.bin";
    source_ = std::make_unique<models::MsrModel>(TinyConfig(), kNumItems, 1);
    source_store_ = std::make_unique<InterestStore>();
    FillState(source_.get(), source_store_.get());
    std::string error;
    ASSERT_TRUE(SaveCheckpoint(path_, *source_, *source_store_,
                               {3, "corruption test"}, &error))
        << error;
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 100u);
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    for (int i = 1; i <= 3; ++i) {
      std::remove((path_ + "." + std::to_string(i)).c_str());
    }
  }

  std::string path_;
  std::unique_ptr<models::MsrModel> source_;
  std::unique_ptr<InterestStore> source_store_;
  std::vector<uint8_t> bytes_;
};

TEST_F(CheckpointCorruptionTest, TruncationAtEveryByteFailsCleanly) {
  models::MsrModel destination(TinyConfig(), kNumItems, 7);
  InterestStore destination_store;
  const Fingerprint fingerprint =
      Fingerprint::Of(destination, destination_store);
  for (size_t length = 0; length < bytes_.size(); ++length) {
    WriteFileBytes(path_, std::vector<uint8_t>(bytes_.begin(),
                                               bytes_.begin() + length));
    std::string error;
    CheckpointMetadata metadata;
    ASSERT_FALSE(LoadCheckpoint(path_, &destination, &destination_store,
                                &metadata, &error))
        << "truncation at byte " << length << " was accepted";
    ASSERT_FALSE(error.empty()) << "no error for truncation at " << length;
    fingerprint.ExpectUnchanged(destination, destination_store,
                                "truncation at byte " +
                                    std::to_string(length));
  }
}

TEST_F(CheckpointCorruptionTest, BitFlipsAnywhereAreDetected) {
  models::MsrModel destination(TinyConfig(), kNumItems, 7);
  InterestStore destination_store;
  const Fingerprint fingerprint =
      Fingerprint::Of(destination, destination_store);
  for (size_t offset = 0; offset < bytes_.size(); offset += 3) {
    std::vector<uint8_t> corrupted = bytes_;
    corrupted[offset] ^= static_cast<uint8_t>(1u << (offset % 8));
    WriteFileBytes(path_, corrupted);
    std::string error;
    ASSERT_FALSE(LoadCheckpoint(path_, &destination, &destination_store,
                                nullptr, &error))
        << "bit flip at byte " << offset << " was accepted";
    ASSERT_FALSE(error.empty());
    fingerprint.ExpectUnchanged(destination, destination_store,
                                "bit flip at byte " +
                                    std::to_string(offset));
  }
}

TEST_F(CheckpointCorruptionTest, MismatchedShapesAreRejectedDescriptively) {
  {
    models::ModelConfig wide = TinyConfig();
    wide.embedding_dim = 16;
    models::MsrModel destination(wide, kNumItems, 7);
    InterestStore destination_store;
    const Fingerprint fingerprint =
        Fingerprint::Of(destination, destination_store);
    std::string error;
    EXPECT_FALSE(LoadCheckpoint(path_, &destination, &destination_store,
                                nullptr, &error));
    EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
    fingerprint.ExpectUnchanged(destination, destination_store,
                                "wrong embedding dim");
  }
  {
    models::MsrModel destination(TinyConfig(), kNumItems + 5, 7);
    InterestStore destination_store;
    std::string error;
    EXPECT_FALSE(LoadCheckpoint(path_, &destination, &destination_store,
                                nullptr, &error));
    EXPECT_NE(error.find("item count mismatch"), std::string::npos)
        << error;
  }
  {
    models::MsrModel destination(
        TinyConfig(models::ExtractorKind::kComiRecSa), kNumItems, 7);
    InterestStore destination_store;
    std::string error;
    EXPECT_FALSE(LoadCheckpoint(path_, &destination, &destination_store,
                                nullptr, &error));
    EXPECT_NE(error.find("extractor kind mismatch"), std::string::npos)
        << error;
  }
}

TEST_F(CheckpointCorruptionTest, GarbageAndEmptyFilesAreRejected) {
  models::MsrModel destination(TinyConfig(), kNumItems, 7);
  InterestStore destination_store;
  std::string error;

  WriteFileBytes(path_, {});
  EXPECT_FALSE(LoadCheckpoint(path_, &destination, &destination_store,
                              nullptr, &error));
  EXPECT_FALSE(error.empty());

  util::Rng rng(4);
  std::vector<uint8_t> garbage(4096);
  for (auto& byte : garbage) {
    byte = static_cast<uint8_t>(rng.NextUint64());
  }
  WriteFileBytes(path_, garbage);
  error.clear();
  EXPECT_FALSE(LoadCheckpoint(path_, &destination, &destination_store,
                              nullptr, &error));
  EXPECT_NE(error.find("not an IMSR checkpoint"), std::string::npos)
      << error;
}

// The unframed v1 layout (magic | span | note | model | store) is no
// longer read: a file carrying its magic is refused as an unsupported
// version, named in the error, and the destination stays untouched.
TEST_F(CheckpointCorruptionTest, V1MagicIsRejectedAsUnsupportedVersion) {
  util::BinaryWriter writer;
  writer.WriteString("imsr-checkpoint-v1");
  writer.WriteInt64(2);
  writer.WriteString("legacy");
  source_->Save(&writer);
  source_store_->Save(&writer);
  ASSERT_TRUE(writer.WriteToFileAtomic(path_));

  models::MsrModel destination(TinyConfig(), kNumItems, 7);
  InterestStore destination_store;
  const Fingerprint fingerprint =
      Fingerprint::Of(destination, destination_store);
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path_, &destination, &destination_store,
                              nullptr, &error));
  EXPECT_NE(error.find("unsupported checkpoint version"), std::string::npos)
      << error;
  EXPECT_NE(error.find("imsr-checkpoint-v1"), std::string::npos) << error;
  fingerprint.ExpectUnchanged(destination, destination_store, "v1 file");
}

TEST_F(CheckpointCorruptionTest, SaveIsAtomicAndSurvivesStaleTmp) {
  // A successful save leaves no tmp file behind.
  EXPECT_FALSE(FileExists(path_ + ".tmp"));

  // A crash between writing the tmp file and the rename (kill -9) leaves a
  // stale/partial tmp next to an intact previous checkpoint.
  WriteFileBytes(path_ + ".tmp", {0xde, 0xad, 0xbe, 0xef});
  models::MsrModel destination(TinyConfig(), kNumItems, 7);
  InterestStore destination_store;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(path_, &destination, &destination_store,
                             nullptr, &error))
      << error;

  // The next save replaces the stale tmp and still lands atomically.
  ASSERT_TRUE(SaveCheckpoint(path_, *source_, *source_store_, {4, "next"},
                             &error))
      << error;
  EXPECT_FALSE(FileExists(path_ + ".tmp"));
  CheckpointMetadata metadata;
  ASSERT_TRUE(LoadCheckpoint(path_, &destination, &destination_store,
                             &metadata, &error))
      << error;
  EXPECT_EQ(metadata.trained_through_span, 4);
}

TEST_F(CheckpointCorruptionTest, SaveToUnwritablePathReportsError) {
  std::string error;
  EXPECT_FALSE(SaveCheckpoint("/nonexistent-dir/ckpt.bin", *source_,
                              *source_store_, {0, ""}, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(CheckpointCorruptionTest, RotationKeepsPreviousGenerations) {
  // Generation 1 is on disk from SetUp; write generations 2 and 3 with
  // rotation, then corrupt the live file — generation 2 must still load.
  RotateCheckpoints(path_, 2);
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(path_, *source_, *source_store_, {2, "gen2"},
                             &error))
      << error;
  RotateCheckpoints(path_, 2);
  ASSERT_TRUE(SaveCheckpoint(path_, *source_, *source_store_, {3, "gen3"},
                             &error))
      << error;
  EXPECT_TRUE(FileExists(path_));
  EXPECT_TRUE(FileExists(path_ + ".1"));
  EXPECT_TRUE(FileExists(path_ + ".2"));
  EXPECT_FALSE(FileExists(path_ + ".3"));

  WriteFileBytes(path_, {1, 2, 3});
  models::MsrModel destination(TinyConfig(), kNumItems, 7);
  InterestStore destination_store;
  CheckpointMetadata metadata;
  EXPECT_FALSE(LoadCheckpoint(path_, &destination, &destination_store,
                              &metadata, &error));
  ASSERT_TRUE(LoadCheckpoint(path_ + ".1", &destination,
                             &destination_store, &metadata, &error))
      << error;
  EXPECT_EQ(metadata.note, "gen2");
  ASSERT_TRUE(LoadCheckpoint(path_ + ".2", &destination,
                             &destination_store, &metadata, &error))
      << error;
  EXPECT_EQ(metadata.note, "corruption test");
}

// Bit-flip and truncation robustness for the self-attention model, whose
// checkpoint carries per-user query matrices (the trickiest section).
TEST(CheckpointCorruptionSaTest, SelfAttentionCorruptionFailsCleanly) {
  const std::string path = "/tmp/imsr_ckpt_corruption_sa_test.bin";
  models::MsrModel model(TinyConfig(models::ExtractorKind::kComiRecSa),
                         kNumItems, 1);
  InterestStore store;
  FillState(&model, &store);
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(path, model, store, {1, "sa"}, &error))
      << error;
  const std::vector<uint8_t> bytes = ReadFileBytes(path);

  models::MsrModel destination(
      TinyConfig(models::ExtractorKind::kComiRecSa), kNumItems, 7);
  InterestStore destination_store;
  for (size_t offset = 0; offset < bytes.size(); offset += 11) {
    std::vector<uint8_t> corrupted = bytes;
    corrupted[offset] ^= 0x40;
    WriteFileBytes(path, corrupted);
    ASSERT_FALSE(LoadCheckpoint(path, &destination, &destination_store,
                                nullptr, &error))
        << "bit flip at byte " << offset << " was accepted";
  }
  for (size_t length = 0; length < bytes.size(); length += 7) {
    WriteFileBytes(path, std::vector<uint8_t>(bytes.begin(),
                                              bytes.begin() + length));
    ASSERT_FALSE(LoadCheckpoint(path, &destination, &destination_store,
                                nullptr, &error))
        << "truncation at byte " << length << " was accepted";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imsr::core
