// Model import (the "yellow flow" of Fig. 6(b)).
//
// Tsetlin Machines trained *outside* MATADOR can be brought into the flow
// through the plain-text model format.  This example:
//   1. trains a model and saves it to disk (standing in for an external
//      training framework such as REDRESS),
//   2. re-loads it with TrainedModel::load_file,
//   3. runs the import flow (no training stage) and shows the generated
//      accelerator is bit-identical to the one from the training flow,
//   4. continues on-device-style fine-tuning from the imported model via
//      TsetlinMachine::import_model.
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "data/synthetic.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"

int main() {
    using namespace matador;

    std::cout << "=== MATADOR model import (yellow flow) ===\n\n";

    const auto ds = data::make_iris_like(/*examples_per_class=*/150, /*levels=*/4,
                                         /*seed=*/9);
    const auto split = data::train_test_split(ds, 0.8, 11);

    core::FlowConfig cfg;
    cfg.tm.clauses_per_class = 30;
    cfg.tm.threshold = 12;
    cfg.epochs = 10;
    cfg.arch.bus_width = 8;

    // 1. "External" training + save.
    const core::Pipeline pipeline(cfg);
    const auto trained = pipeline.run(split.train, split.test).to_flow_result();
    const std::string path =
        (std::filesystem::temp_directory_path() / "matador_iris_model.tm").string();
    trained.trained_model.save_file(path);
    std::printf("saved model to %s (%zu includes, density %.3f%%)\n", path.c_str(),
                trained.trained_model.total_includes(),
                100.0 * trained.trained_model.include_density());

    // 2. Re-load.
    const auto loaded = model::TrainedModel::load_file(path);
    std::printf("reloaded: identical to saved model: %s\n",
                loaded == trained.trained_model ? "yes" : "NO");
    std::filesystem::remove(path);

    // 3. Import flow: the train stage sees the supplied model and skips
    //    training (it reports status "skipped" in the stage table).
    const auto imported_ctx = pipeline.run_with_model(loaded, &split.test);
    const auto imported = imported_ctx.to_flow_result();
    std::cout << core::format_flow_summary(imported, "imported iris-like model");
    std::cout << "\n" << core::format_stage_report(imported_ctx);
    std::printf("import flow reproduces training flow: LUTs %s, latency %s\n",
                imported.resources.luts == trained.resources.luts ? "match"
                                                                  : "MISMATCH",
                imported.arch.latency_cycles() == trained.arch.latency_cycles()
                    ? "match"
                    : "MISMATCH");

    // 4. Continue training from the imported model.
    tm::TsetlinMachine machine(cfg.tm, ds.num_features, ds.num_classes);
    machine.import_model(loaded);
    const double before = machine.evaluate(split.test);
    train::ParallelTrainer({.epochs = 5}).fit(machine, split.train);
    const double after = machine.evaluate(split.test);
    std::printf("fine-tuning from import: %.2f%% -> %.2f%% test accuracy\n",
                100.0 * before, 100.0 * after);

    return imported_ctx.ok() ? 0 : 1;
}
