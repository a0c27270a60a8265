#include "core/train_flags.h"

#include "util/flags.h"

namespace imsr::core {

void RegisterTrainFlags(util::FlagSet* flags, bool with_training) {
  flags->AddInt("dim", models::ModelConfig{}.embedding_dim,
                "embedding / attention dimension", /*min=*/1);
  if (!with_training) return;
  const TrainConfig defaults;
  flags->AddInt("pretrain_epochs", defaults.pretrain_epochs,
                "epochs over the pre-training span");
  flags->AddInt("epochs", defaults.epochs, "epochs per incremental span");
  flags->AddDouble("lr", defaults.learning_rate, "Adam learning rate");
  flags->AddInt("k0", defaults.initial_interests,
                "initial interests per user", /*min=*/1);
  flags->AddDouble("kd", defaults.eir.coefficient,
                   "EIR retention coefficient");
  flags->AddDouble("c1", defaults.expansion.nid.c1,
                   "NID puzzlement threshold coefficient");
  flags->AddDouble("c2", defaults.expansion.pit.c2,
                   "PIT trim threshold coefficient");
  flags->AddInt("delta_k", defaults.expansion.delta_k,
                "max interests added per expansion");
}

void ReadTrainFlags(const util::FlagSet& flags, models::ModelConfig* model,
                    TrainConfig* train) {
  model->embedding_dim = flags.GetInt("dim");
  model->attention_dim = flags.GetInt("dim");
  if (train == nullptr) return;
  train->pretrain_epochs = static_cast<int>(flags.GetInt("pretrain_epochs"));
  train->epochs = static_cast<int>(flags.GetInt("epochs"));
  train->learning_rate = static_cast<float>(flags.GetDouble("lr"));
  train->initial_interests = static_cast<int>(flags.GetInt("k0"));
  train->eir.coefficient = static_cast<float>(flags.GetDouble("kd"));
  train->expansion.nid.c1 = flags.GetDouble("c1");
  train->expansion.pit.c2 = flags.GetDouble("c2");
  train->expansion.delta_k = static_cast<int>(flags.GetInt("delta_k"));
}

}  // namespace imsr::core
