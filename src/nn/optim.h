// The Adam optimiser over Var parameters. Parameters are registered
// explicitly; Step() applies the update using each parameter's accumulated
// gradient and then the caller is expected to ZeroGradAll() before the next
// batch.
#ifndef IMSR_NN_OPTIM_H_
#define IMSR_NN_OPTIM_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "nn/variable.h"

namespace imsr::nn {

// Registry of the parameters an optimiser updates; extractors and
// interests expansion take an Optimizer* to (un)register per-user
// parameters.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  // Adds a parameter (idempotent). The Var must require gradients.
  virtual void Register(const Var& parameter);

  // Drops a parameter and its state (used when per-user parameters are
  // replaced during interests expansion).
  virtual void Unregister(const Var& parameter);

  // Applies one update to every registered parameter that has a gradient.
  virtual void Step() = 0;

  // Clears gradients on all registered parameters.
  void ZeroGradAll();

  size_t num_parameters() const { return parameters_.size(); }

 protected:
  std::vector<Var> parameters_;
  std::unordered_map<VarNode*, size_t> index_;
};

class Adam : public Optimizer {
 public:
  struct Config {
    float learning_rate = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
  };

  explicit Adam(const Config& config) : config_(config) {}
  explicit Adam(float learning_rate) : config_{learning_rate} {}

  void Unregister(const Var& parameter) override;
  void Step() override;

  const Config& config() const { return config_; }
  void set_learning_rate(float lr) { config_.learning_rate = lr; }

 private:
  struct State {
    Tensor m;
    Tensor v;
    int64_t step = 0;
  };
  Config config_;
  std::unordered_map<VarNode*, State> state_;
};

}  // namespace imsr::nn

#endif  // IMSR_NN_OPTIM_H_
