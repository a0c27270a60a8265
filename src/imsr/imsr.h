// Umbrella header for the IMSR library: everything a downstream user
// needs to run incremental multi-interest sequential recommendation.
//
//   #include "imsr/imsr.h"
//
//   auto data  = imsr::data::GenerateSynthetic(
//       imsr::data::SyntheticConfig::Taobao(0.4));
//   imsr::core::ExperimentConfig config;
//   auto result = imsr::core::RunExperiment(*data.dataset, config);
//
// Individual headers remain includable for finer-grained dependencies.
#ifndef IMSR_IMSR_H_
#define IMSR_IMSR_H_

// Numeric substrate.
#include "nn/gradcheck.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "nn/tensor.h"
#include "nn/variable.h"

// Data.
#include "data/dataset.h"
#include "data/interaction.h"
#include "data/log_io.h"
#include "data/sampler.h"
#include "data/stats.h"
#include "data/synthetic.h"

// Base multi-interest models.
#include "models/aggregator.h"
#include "models/comirec_dr.h"
#include "models/comirec_sa.h"
#include "models/diversity.h"
#include "models/embedding.h"
#include "models/mind.h"
#include "models/msr_model.h"
#include "models/sampled_softmax.h"

// IMSR framework.
#include "core/checkpoint.h"
#include "core/eir.h"
#include "core/experiment.h"
#include "core/imsr_trainer.h"
#include "core/interest_store.h"
#include "core/interests_expansion.h"
#include "core/nid.h"
#include "core/pit.h"
#include "core/strategies.h"

// Evaluation.
#include "eval/evaluator.h"
#include "eval/interest_analysis.h"
#include "eval/metrics.h"
#include "eval/projection.h"
#include "eval/ranker.h"

#endif  // IMSR_IMSR_H_
