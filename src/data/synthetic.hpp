// Synthetic dataset generators.
//
// The paper evaluates on MNIST, KMNIST, FMNIST, CIFAR-2 and a 6-keyword
// Google-Speech-Commands subset (KWS6).  This environment has no network or
// dataset files, so we substitute deterministic generators that preserve the
// properties the accelerator flow actually depends on:
//   * exact input dimensionality (784 / 784 / 784 / 1024 / 377 bits),
//   * exact class counts (10 / 10 / 10 / 2 / 6),
//   * class structure learnable by a Tsetlin Machine at accuracies in the
//     paper's regime, with include densities that reproduce the sparsity
//     and sharing behaviour of Section II / Fig. 3.
//
// The image-like generator draws one structured prototype per class
// (blob-shaped active regions on a W x H grid, mimicking thresholded
// digits/garments) and emits samples as prototype XOR per-pixel noise, with
// a configurable fraction of "ambiguous" pixels that are independently
// random (shared across classes - this produces the cross-class expression
// sharing the paper observes).  The audio-like generator mimics booleanized
// MFCC bands: per-class band-activation templates over time frames.
//
// Absolute accuracy numbers are NOT comparable with the paper (different
// data); bench/table1_comparison.cpp says so beside its table.  Shapes (who
// wins, resource ordering, latency arithmetic) do not depend on the raw
// pixels.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace matador::data {

/// Parameters for the structured image-like generator.
struct ImageLikeParams {
    std::size_t width = 28;           ///< grid width  (bits = width*height)
    std::size_t height = 28;          ///< grid height
    std::size_t num_classes = 10;     ///< prototypes to draw
    std::size_t examples_per_class = 300;
    double fill_density = 0.22;       ///< fraction of active pixels per prototype
    double noise = 0.08;              ///< per-pixel flip probability
    double ambiguous_fraction = 0.25; ///< pixels that are pure noise in all classes
    std::size_t blobs = 4;            ///< blob count per prototype (structure)
    /// Per-sample random translation in pixels (both axes, uniform in
    /// [-max_shift, +max_shift]).  Non-convolutional TMs and MLPs handle
    /// translation poorly, which brings accuracies into the realistic
    /// 80-95% band of the paper's Table I.
    std::size_t max_shift = 0;
    std::uint64_t seed = 1;
};

/// Generate a structured image-like dataset (see ImageLikeParams).
Dataset make_image_like(const ImageLikeParams& p);

/// Parameters for the audio-like (booleanized MFCC) generator.
struct AudioLikeParams {
    std::size_t bands = 13;          ///< cepstral bands
    std::size_t frames = 29;         ///< time frames (bands*frames = bits)
    std::size_t num_classes = 6;     ///< keywords
    std::size_t examples_per_class = 400;
    double noise = 0.10;             ///< per-bit flip probability
    double template_density = 0.35;  ///< active cells per keyword template
    std::size_t max_frame_shift = 0; ///< per-sample time misalignment (frames)
    std::uint64_t seed = 2;
};

/// Generate an audio-like dataset of bands*frames bits.
/// With the defaults this gives 13*29 = 377 bits and 6 classes - the same
/// shape as the paper's KWS6 input layer.
Dataset make_audio_like(const AudioLikeParams& p);

/// The classic 2D Noisy-XOR benchmark used by prior TM FPGA work
/// (Wheeldon et al.).  Two relevant bits x0, x1 with label = x0 XOR x1
/// flipped with probability `label_noise`; remaining bits are distractors.
Dataset make_noisy_xor(std::size_t num_examples, std::size_t distractor_bits,
                       double label_noise, std::uint64_t seed);

/// A 3-class, 4-feature Iris-like dataset: Gaussian clusters booleanized
/// with a thermometer code of `levels` bits per feature
/// (16 bits total with levels = 4).
Dataset make_iris_like(std::size_t examples_per_class, std::size_t levels,
                       std::uint64_t seed);

// -- Named surrogates for the paper's five evaluation datasets -------------

/// 784-bit, 10-class MNIST-like surrogate (28x28 grid).
Dataset make_mnist_like(std::size_t examples_per_class = 300, std::uint64_t seed = 11);
/// 784-bit, 10-class KMNIST-like surrogate (harder: more noise/overlap).
Dataset make_kmnist_like(std::size_t examples_per_class = 300, std::uint64_t seed = 12);
/// 784-bit, 10-class FMNIST-like surrogate (denser prototypes).
Dataset make_fmnist_like(std::size_t examples_per_class = 300, std::uint64_t seed = 13);
/// 1024-bit, 2-class CIFAR-2-like surrogate (32x32 grid, animals vs vehicles).
Dataset make_cifar2_like(std::size_t examples_per_class = 1000, std::uint64_t seed = 14);
/// 377-bit, 6-class KWS6-like surrogate (13 bands x 29 frames).
Dataset make_kws6_like(std::size_t examples_per_class = 400, std::uint64_t seed = 15);

}  // namespace matador::data
