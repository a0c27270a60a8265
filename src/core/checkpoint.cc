#include "core/checkpoint.h"

#include <cstdio>

#include "util/crc32.h"
#include "util/serialization.h"

namespace imsr::core {
namespace {

constexpr char kMagicPrefix[] = "imsr-checkpoint-";
constexpr char kMagicV2[] = "imsr-checkpoint-v2";
constexpr char kSectionMeta[] = "meta";
constexpr char kSectionModel[] = "model";
constexpr char kSectionStore[] = "store";

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

void AppendSection(util::BinaryWriter* payload, const std::string& tag,
                   const util::BinaryWriter& body) {
  payload->WriteString(tag);
  payload->WriteInt64(static_cast<int64_t>(body.buffer().size()));
  payload->WriteBytes(body.buffer().data(), body.buffer().size());
}

// Shape metadata written alongside the state so a mismatched model is
// rejected with a clear message before any tensor is parsed.
struct CheckpointMeta {
  CheckpointMetadata metadata;
  std::string extractor_kind;
  int64_t embedding_dim = 0;
  int64_t attention_dim = 0;
  int64_t num_items = 0;
};

bool ParseMeta(util::BinaryReader* reader, CheckpointMeta* meta,
               std::string* error) {
  if (!reader->TryReadInt64(&meta->metadata.trained_through_span) ||
      !reader->TryReadString(&meta->metadata.note) ||
      !reader->TryReadString(&meta->extractor_kind) ||
      !reader->TryReadInt64(&meta->embedding_dim) ||
      !reader->TryReadInt64(&meta->attention_dim) ||
      !reader->TryReadInt64(&meta->num_items)) {
    SetError(error, "corrupt meta section: " + reader->error());
    return false;
  }
  return true;
}

bool ValidateMeta(const CheckpointMeta& meta, const models::MsrModel& model,
                  std::string* error) {
  const models::ModelConfig& config = model.config();
  if (meta.extractor_kind != models::ExtractorKindName(config.kind)) {
    SetError(error, "extractor kind mismatch: checkpoint has '" +
                        meta.extractor_kind + "', model expects '" +
                        models::ExtractorKindName(config.kind) + "'");
    return false;
  }
  if (meta.embedding_dim != config.embedding_dim) {
    SetError(error, "embedding dim mismatch: checkpoint has " +
                        std::to_string(meta.embedding_dim) +
                        ", model expects " +
                        std::to_string(config.embedding_dim));
    return false;
  }
  if (config.kind == models::ExtractorKind::kComiRecSa &&
      meta.attention_dim != config.attention_dim) {
    SetError(error, "attention dim mismatch: checkpoint has " +
                        std::to_string(meta.attention_dim) +
                        ", model expects " +
                        std::to_string(config.attention_dim));
    return false;
  }
  if (meta.num_items != model.num_items()) {
    SetError(error, "item count mismatch: checkpoint has " +
                        std::to_string(meta.num_items) +
                        ", model expects " +
                        std::to_string(model.num_items()));
    return false;
  }
  return true;
}

// Parses the framed v2 payload (already CRC-validated) into the staging
// model and store.
bool LoadV2Payload(util::BinaryReader* payload, models::MsrModel* staging,
                   InterestStore* staging_store, CheckpointMeta* meta,
                   std::string* error) {
  bool seen_meta = false;
  bool seen_model = false;
  bool seen_store = false;
  while (!payload->AtEnd()) {
    std::string tag;
    int64_t body_size = 0;
    if (!payload->TryReadString(&tag) ||
        !payload->TryReadInt64(&body_size)) {
      SetError(error, "corrupt section framing: " + payload->error());
      return false;
    }
    if (body_size < 0 ||
        static_cast<uint64_t>(body_size) > payload->remaining()) {
      SetError(error, "corrupt section '" + tag + "': body of " +
                          std::to_string(body_size) + " bytes, " +
                          std::to_string(payload->remaining()) + " remain");
      return false;
    }
    util::BinaryReader body(std::vector<uint8_t>(
        payload->current(), payload->current() + body_size));
    payload->TrySkip(static_cast<size_t>(body_size));
    if (tag == kSectionMeta) {
      if (!ParseMeta(&body, meta, error)) return false;
      if (!ValidateMeta(*meta, *staging, error)) return false;
      seen_meta = true;
    } else if (tag == kSectionModel) {
      if (!seen_meta) {
        SetError(error, "model section precedes meta section");
        return false;
      }
      std::string section_error;
      if (!staging->Load(&body, &section_error)) {
        SetError(error, "corrupt model section: " + section_error);
        return false;
      }
      if (!body.AtEnd()) {
        SetError(error, "model section has trailing bytes");
        return false;
      }
      seen_model = true;
    } else if (tag == kSectionStore) {
      if (!seen_meta) {
        SetError(error, "store section precedes meta section");
        return false;
      }
      std::string section_error;
      if (!staging_store->Load(&body, &section_error,
                               meta->embedding_dim)) {
        SetError(error, "corrupt store section: " + section_error);
        return false;
      }
      if (!body.AtEnd()) {
        SetError(error, "store section has trailing bytes");
        return false;
      }
      seen_store = true;
    }
    // Unknown tags are skipped: newer writers may append sections.
  }
  if (!seen_meta || !seen_model || !seen_store) {
    SetError(error, "incomplete checkpoint: missing section");
    return false;
  }
  return true;
}

}  // namespace

bool SaveCheckpoint(const std::string& path, const models::MsrModel& model,
                    const InterestStore& store,
                    const CheckpointMetadata& metadata, std::string* error) {
  util::BinaryWriter meta_body;
  meta_body.WriteInt64(metadata.trained_through_span);
  meta_body.WriteString(metadata.note);
  meta_body.WriteString(models::ExtractorKindName(model.config().kind));
  meta_body.WriteInt64(model.config().embedding_dim);
  meta_body.WriteInt64(model.config().attention_dim);
  meta_body.WriteInt64(model.num_items());

  util::BinaryWriter model_body;
  model.Save(&model_body);
  util::BinaryWriter store_body;
  store.Save(&store_body);

  util::BinaryWriter payload;
  AppendSection(&payload, kSectionMeta, meta_body);
  AppendSection(&payload, kSectionModel, model_body);
  AppendSection(&payload, kSectionStore, store_body);

  util::BinaryWriter file;
  file.WriteString(kMagicV2);
  file.WriteInt64(static_cast<int64_t>(payload.buffer().size()));
  file.WriteBytes(payload.buffer().data(), payload.buffer().size());
  file.WriteInt64(static_cast<int64_t>(
      util::Crc32(payload.buffer().data(), payload.buffer().size())));
  return file.WriteToFileAtomic(path, error);
}

bool LoadCheckpoint(const std::string& path, models::MsrModel* model,
                    InterestStore* store, CheckpointMetadata* metadata,
                    std::string* error) {
  util::BinaryReader reader({});
  if (!util::BinaryReader::ReadFromFile(path, &reader)) {
    SetError(error, "cannot read " + path);
    return false;
  }
  std::string magic;
  if (!reader.TryReadString(&magic) || magic.rfind(kMagicPrefix, 0) != 0) {
    SetError(error, "not an IMSR checkpoint: " + path);
    return false;
  }
  if (magic != kMagicV2) {
    SetError(error, "unsupported checkpoint version '" + magic + "' in " +
                        path + " (this build reads " + kMagicV2 + ")");
    return false;
  }

  // All parsing goes into staging objects; the destination model/store are
  // only touched after the whole file has validated.
  models::MsrModel staging(model->config(), model->num_items(), /*seed=*/1);
  InterestStore staging_store;
  int64_t payload_size = 0;
  if (!reader.TryReadInt64(&payload_size)) {
    SetError(error, "truncated checkpoint header: " + reader.error());
    return false;
  }
  if (payload_size < 0 || static_cast<uint64_t>(payload_size) +
                                  sizeof(int64_t) >
                              reader.remaining()) {
    SetError(error, "truncated checkpoint: payload of " +
                        std::to_string(payload_size) + " bytes, " +
                        std::to_string(reader.remaining()) + " remain");
    return false;
  }
  const uint32_t actual_crc =
      util::Crc32(reader.current(), static_cast<size_t>(payload_size));
  util::BinaryReader payload(std::vector<uint8_t>(
      reader.current(), reader.current() + payload_size));
  reader.TrySkip(static_cast<size_t>(payload_size));
  int64_t stored_crc = 0;
  if (!reader.TryReadInt64(&stored_crc)) {
    SetError(error, "truncated checkpoint: missing checksum");
    return false;
  }
  // Full 64-bit compare: the field is the CRC zero-extended, so a flip
  // in its upper bytes is corruption too.
  if (stored_crc != static_cast<int64_t>(actual_crc)) {
    SetError(error, "checksum mismatch: checkpoint is corrupt");
    return false;
  }
  CheckpointMeta meta;
  if (!LoadV2Payload(&payload, &staging, &staging_store, &meta, error)) {
    return false;
  }

  model->CopyStateFrom(staging);
  *store = std::move(staging_store);
  if (metadata != nullptr) *metadata = meta.metadata;
  return true;
}

void RotateCheckpoints(const std::string& path, int keep) {
  if (keep <= 0) return;
  std::remove((path + "." + std::to_string(keep)).c_str());
  for (int i = keep; i >= 2; --i) {
    std::rename((path + "." + std::to_string(i - 1)).c_str(),
                (path + "." + std::to_string(i)).c_str());
  }
  std::rename(path.c_str(), (path + ".1").c_str());
}

}  // namespace imsr::core
