// ParallelTrainer: deterministic class-parallel Tsetlin-Machine training,
// the one way to train a tm::TsetlinMachine (at one thread it is the
// sequential path).  An epoch is structured so the only data dependency
// that remains is the real one - within a class, examples must be seen in
// order - and everything else is free to run concurrently:
//
//   * literals: [x | ~x] vectors are built once per example up front and
//     shared read-only by all workers and all epochs;
//   * classes:  example i's feedback touches only its target class and one
//     sampled negative class.  An epoch cuts the shuffled order into
//     segments of 1024 positions, and workers claim (segment, class) tasks,
//     segment-major, from one atomic counter.  A task starts only after the
//     same class's previous segment has published its completion (release
//     store, acquire load), so each class applies its updates in epoch
//     order while busy workers never sit idle behind a fixed slice of
//     classes - no locks, no barriers inside an epoch, disjoint writes;
//   * randomness: stateless KeyedRng streams (util/rng.hpp), never a
//     shared sequential RNG - the epoch shuffle is keyed by (seed, epoch),
//     negative-class sampling by (seed, epoch, example) so every worker
//     derives it identically without drawing from a shared stream, and
//     feedback masks by (seed, epoch, example, class).
//
// Because no draw depends on scheduling, the trained model is bit-identical
// at any thread count - which keeps ArtifactStore train keys meaningful and
// lets distributed sweep shards on machines of different widths agree.
//
// On top of the engine, fit() adds epoch metrics (per-evaluation train/eval
// accuracy history), an evaluation cadence, and patience-based early
// stopping with a best-model snapshot (see fit.hpp).  Evaluation points run
// through infer::BatchEngine - 64 examples per pass over the prebuilt
// literal matrix, block-sliced across the same worker pool - and stay
// bit-identical to the scalar predict loop at any thread count.
#pragma once

#include <memory>

#include "data/dataset.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/fit.hpp"
#include "train/worker_pool.hpp"

namespace matador::train {

class ParallelTrainer {
public:
    explicit ParallelTrainer(FitOptions options = {});
    ~ParallelTrainer();

    const FitOptions& options() const { return options_; }
    /// Worker count the trainer will use (pool is created on first fit and
    /// persists across fits).
    unsigned threads() const;

    /// Train `machine` in place on `train`.  `eval_set` (optional) supplies
    /// the eval-accuracy column and the early-stopping metric; without it,
    /// patience tracks train accuracy.  On return the machine holds the
    /// selected model: the best evaluation snapshot when patience is
    /// enabled, the last epoch's state otherwise.  Both sets pass
    /// Dataset::validate() (std::runtime_error) before any work.
    FitReport fit(tm::TsetlinMachine& machine, const data::Dataset& train,
                  const data::Dataset* eval_set = nullptr);

private:
    FitOptions options_;
    std::unique_ptr<WorkerPool> pool_;
};

}  // namespace matador::train
