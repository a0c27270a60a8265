// The model and training flags shared by imsr_cli's training commands and
// the paper bench programs: --dim, and the Algorithm 2 knobs
// --pretrain_epochs, --epochs, --lr, --k0, --kd, --c1, --c2 and
// --delta_k. Their defaults are the ModelConfig / TrainConfig defaults,
// so each is written once, in the config structs.
#ifndef IMSR_CORE_TRAIN_FLAGS_H_
#define IMSR_CORE_TRAIN_FLAGS_H_

#include "core/imsr_trainer.h"
#include "models/msr_model.h"

namespace imsr::util {
class FlagSet;
}  // namespace imsr::util

namespace imsr::core {

// Registers --dim and, when `with_training`, the training knobs.
void RegisterTrainFlags(util::FlagSet* flags, bool with_training);

// Reads them back after the parse: --dim sets both model dimensions;
// `train` receives the training knobs and must be null exactly when the
// flags were registered without them.
void ReadTrainFlags(const util::FlagSet& flags, models::ModelConfig* model,
                    TrainConfig* train);

}  // namespace imsr::core

#endif  // IMSR_CORE_TRAIN_FLAGS_H_
