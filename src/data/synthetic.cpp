#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <span>
#include <vector>

#include "data/booleanizer.hpp"
#include "util/rng.hpp"

namespace matador::data {

namespace {

using util::BitVector;
using util::Xoshiro256ss;

constexpr std::size_t kWordBits = BitVector::kWordBits;

/// Draw a structured prototype on a width x height grid: `blobs` roughly
/// circular active regions whose total area approximates `fill_density`,
/// restricted to pixels not in `ambiguous`.
BitVector draw_prototype(std::size_t width, std::size_t height, std::size_t blobs,
                         double fill_density, const BitVector& ambiguous,
                         Xoshiro256ss& rng) {
    const std::size_t bits = width * height;
    BitVector proto(bits);
    const double target = fill_density * double(bits);
    // Area per blob => radius; blobs are jittered ellipses.
    const double area_per_blob = target / double(blobs);
    const double base_r = std::sqrt(area_per_blob / 3.141592653589793);

    for (std::size_t b = 0; b < blobs; ++b) {
        const double cx = 2.0 + rng.uniform() * (double(width) - 4.0);
        const double cy = 2.0 + rng.uniform() * (double(height) - 4.0);
        const double rx = base_r * (0.7 + 0.6 * rng.uniform());
        const double ry = base_r * (0.7 + 0.6 * rng.uniform());
        for (std::size_t y = 0; y < height; ++y) {
            for (std::size_t x = 0; x < width; ++x) {
                const double dx = (double(x) - cx) / rx;
                const double dy = (double(y) - cy) / ry;
                if (dx * dx + dy * dy <= 1.0) {
                    const std::size_t i = y * width + x;
                    if (!ambiguous.get(i)) proto.set(i);
                }
            }
        }
    }
    return proto;
}

/// The integer form of `bernoulli(p)` on one raw draw:
/// `(draw >> 11) < bernoulli_threshold(p)`.  uniform() is
/// `(draw >> 11) * 2^-53`, and scaling both sides of `uniform() < p` by the
/// power of two 2^53 is exact; an integer is below a real iff it is below
/// its ceiling.  So for p in [0, 1], `uniform() < p` is exactly
/// `(draw >> 11) < ceil(p * 2^53)`.  The clamps give the same answer as
/// uniform() for p outside [0, 1] and for NaN.
std::uint64_t bernoulli_threshold(double p) {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return std::uint64_t{1} << 53;
    return std::uint64_t(std::ceil(std::ldexp(p, 53)));
}

/// `bits` (<= 64) Bernoulli draws packed into one word, draw b in bit b:
/// the same draws, in the same order, as `bits` calls of bernoulli(p).
std::uint64_t bernoulli_bits(Xoshiro256ss& rng, std::uint64_t threshold,
                             std::size_t bits) {
    std::uint64_t w = 0;
    for (std::size_t b = 0; b < bits; ++b)
        w |= std::uint64_t((rng() >> 11) < threshold) << b;
    return w;
}

/// Flip each bit of `x` with probability `p`, drawing in bit order.  The
/// last word takes only size % 64 draws, so the zero tail stays zero.
void add_noise(BitVector& x, double p, Xoshiro256ss& rng) {
    const std::uint64_t threshold = bernoulli_threshold(p);
    const auto words = x.words();
    for (std::size_t w = 0; w < words.size(); ++w)
        words[w] ^=
            bernoulli_bits(rng, threshold, std::min(kWordBits, x.size() - w * kWordBits));
}

/// OR `len` bits of `src` starting at bit `from` into `dst` at bit `to`.
/// Each step moves one chunk that fits in one word of `dst`, read from at
/// most two words of `src`; no shift is ever by 64 or more.
void or_bit_range(std::span<std::uint64_t> dst, std::size_t to,
                  std::span<const std::uint64_t> src, std::size_t from, std::size_t len) {
    while (len > 0) {
        const std::size_t n = std::min(len, kWordBits - to % kWordBits);
        const std::size_t s = from % kWordBits;
        std::uint64_t chunk = src[from / kWordBits] >> s;
        if (s + n > kWordBits) chunk |= src[from / kWordBits + 1] << (kWordBits - s);
        if (n < kWordBits) chunk &= (std::uint64_t{1} << n) - 1;
        dst[to / kWordBits] |= chunk << (to % kWordBits);
        to += n;
        from += n;
        len -= n;
    }
}

/// Translate a width x height image by (dx, dy), clipping at the borders:
/// each surviving row is copied as one bit range.
BitVector shift_image(const BitVector& src, std::size_t width, std::size_t height,
                      int dx, int dy) {
    BitVector out(src.size());
    const long w = long(width), h = long(height);
    if (std::abs(long(dx)) >= w || std::abs(long(dy)) >= h) return out;
    // Columns [x0, x0 + len) of a source row land at [x0 + dx, x0 + dx + len).
    const long x0 = std::max(0L, -long(dx)), len = w - std::abs(long(dx));
    for (long y = std::max(0L, long(dy)); y < std::min(h, h + dy); ++y)
        or_bit_range(out.words(), std::size_t(y * w + x0 + dx), src.words(),
                     std::size_t((y - dy) * w + x0), std::size_t(len));
    return out;
}

}  // namespace

Dataset make_image_like(const ImageLikeParams& p) {
    Xoshiro256ss rng(p.seed);
    const std::size_t bits = p.width * p.height;

    Dataset ds;
    ds.name = "image-like-" + std::to_string(bits) + "b" + std::to_string(p.num_classes) + "c";
    ds.num_features = bits;
    ds.num_classes = p.num_classes;

    // Ambiguous pixels: independently random in every sample, of every class.
    // Noise on an empty grid marks each pixel with probability
    // ambiguous_fraction.
    BitVector ambiguous(bits);
    add_noise(ambiguous, p.ambiguous_fraction, rng);

    std::vector<BitVector> protos;
    protos.reserve(p.num_classes);
    for (std::size_t c = 0; c < p.num_classes; ++c)
        protos.push_back(
            draw_prototype(p.width, p.height, p.blobs, p.fill_density, ambiguous, rng));
    const std::vector<std::size_t> ambiguous_bits = ambiguous.set_bits();
    const std::uint64_t half = bernoulli_threshold(0.5);

    for (std::size_t c = 0; c < p.num_classes; ++c) {
        for (std::size_t e = 0; e < p.examples_per_class; ++e) {
            BitVector x = protos[c];
            if (p.max_shift > 0) {
                const int span = 2 * int(p.max_shift) + 1;
                const int dx = int(rng.below(std::uint64_t(span))) - int(p.max_shift);
                const int dy = int(rng.below(std::uint64_t(span))) - int(p.max_shift);
                x = shift_image(x, p.width, p.height, dx, dy);
            }
            add_noise(x, p.noise, rng);
            // Ambiguous pixels: uniform random, identical process across
            // classes, drawn in ascending bit order.
            x.and_not(ambiguous);
            const auto words = x.words();
            for (const std::size_t i : ambiguous_bits)
                words[i / kWordBits] |= std::uint64_t((rng() >> 11) < half) << (i % kWordBits);
            ds.add(std::move(x), std::uint32_t(c));
        }
    }
    shuffle(ds, p.seed ^ 0x5555aaaa5555aaaaull);
    return ds;
}

Dataset make_audio_like(const AudioLikeParams& p) {
    Xoshiro256ss rng(p.seed);
    const std::size_t bits = p.bands * p.frames;

    Dataset ds;
    ds.name = "audio-like-" + std::to_string(bits) + "b" + std::to_string(p.num_classes) + "c";
    ds.num_features = bits;
    ds.num_classes = p.num_classes;

    // Per-keyword template: a smooth trajectory of active bands over frames.
    std::vector<BitVector> templates;
    for (std::size_t c = 0; c < p.num_classes; ++c) {
        BitVector t(bits);
        // Random walk of a band-centre across frames plus random accents.
        double centre = rng.uniform() * double(p.bands);
        const double span = 1.0 + rng.uniform() * double(p.bands) * p.template_density;
        for (std::size_t f = 0; f < p.frames; ++f) {
            centre += (rng.uniform() - 0.5) * 2.0;
            centre = std::clamp(centre, 0.0, double(p.bands - 1));
            for (std::size_t b = 0; b < p.bands; ++b)
                if (std::abs(double(b) - centre) <= span * 0.5) t.set(f * p.bands + b);
        }
        templates.push_back(std::move(t));
    }

    for (std::size_t c = 0; c < p.num_classes; ++c) {
        for (std::size_t e = 0; e < p.examples_per_class; ++e) {
            BitVector x = templates[c];
            if (p.max_frame_shift > 0) {
                const int span = 2 * int(p.max_frame_shift) + 1;
                const int df =
                    int(rng.below(std::uint64_t(span))) - int(p.max_frame_shift);
                // Shift whole frames in time; bands stay aligned.
                x = shift_image(x, p.bands, p.frames, 0, df);
            }
            add_noise(x, p.noise, rng);
            ds.add(std::move(x), std::uint32_t(c));
        }
    }
    shuffle(ds, p.seed ^ 0x123456789abcdef0ull);
    return ds;
}

Dataset make_noisy_xor(std::size_t num_examples, std::size_t distractor_bits,
                       double label_noise, std::uint64_t seed) {
    Xoshiro256ss rng(seed);
    Dataset ds;
    ds.name = "noisy-xor";
    ds.num_features = 2 + distractor_bits;
    ds.num_classes = 2;
    for (std::size_t e = 0; e < num_examples; ++e) {
        BitVector x(ds.num_features);
        const bool a = rng.bernoulli(0.5), b = rng.bernoulli(0.5);
        x.set(0, a);
        x.set(1, b);
        for (std::size_t i = 2; i < ds.num_features; ++i) x.set(i, rng.bernoulli(0.5));
        bool label = a != b;
        if (rng.bernoulli(label_noise)) label = !label;
        ds.add(std::move(x), std::uint32_t(label));
    }
    return ds;
}

Dataset make_iris_like(std::size_t examples_per_class, std::size_t levels,
                       std::uint64_t seed) {
    Xoshiro256ss rng(seed);
    // Class means loosely modelled on the real Iris measurements (cm).
    const double means[3][4] = {
        {5.0, 3.4, 1.5, 0.25},  // setosa-like
        {5.9, 2.8, 4.3, 1.3},   // versicolor-like
        {6.6, 3.0, 5.5, 2.0},   // virginica-like
    };
    const double sigma[4] = {0.35, 0.30, 0.35, 0.20};

    ThermometerBooleanizer booleanizer(levels, 0.0, 8.0);
    Dataset ds;
    ds.name = "iris-like";
    ds.num_features = booleanizer.output_bits(4);
    ds.num_classes = 3;

    auto gauss = [&rng]() {
        // Box-Muller.
        const double u1 = std::max(rng.uniform(), 1e-12), u2 = rng.uniform();
        return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.141592653589793 * u2);
    };

    for (std::size_t c = 0; c < 3; ++c) {
        for (std::size_t e = 0; e < examples_per_class; ++e) {
            std::vector<double> x(4);
            for (std::size_t f = 0; f < 4; ++f) x[f] = means[c][f] + sigma[f] * gauss();
            ds.add(booleanizer.encode(x), std::uint32_t(c));
        }
    }
    shuffle(ds, seed ^ 0xfeedfacecafebeefull);
    return ds;
}

Dataset make_mnist_like(std::size_t examples_per_class, std::uint64_t seed) {
    ImageLikeParams p;
    p.width = 28;
    p.height = 28;
    p.num_classes = 10;
    p.examples_per_class = examples_per_class;
    p.fill_density = 0.20;
    p.noise = 0.14;
    p.ambiguous_fraction = 0.35;
    p.blobs = 4;
    p.max_shift = 2;
    p.seed = seed;
    Dataset ds = make_image_like(p);
    ds.name = "mnist-like";
    return ds;
}

Dataset make_kmnist_like(std::size_t examples_per_class, std::uint64_t seed) {
    ImageLikeParams p;
    p.width = 28;
    p.height = 28;
    p.num_classes = 10;
    p.examples_per_class = examples_per_class;
    p.fill_density = 0.26;
    p.noise = 0.18;        // harder than MNIST, as in the paper's accuracy gap
    p.ambiguous_fraction = 0.40;
    p.blobs = 6;
    p.max_shift = 3;
    p.seed = seed;
    Dataset ds = make_image_like(p);
    ds.name = "kmnist-like";
    return ds;
}

Dataset make_fmnist_like(std::size_t examples_per_class, std::uint64_t seed) {
    ImageLikeParams p;
    p.width = 28;
    p.height = 28;
    p.num_classes = 10;
    p.examples_per_class = examples_per_class;
    p.fill_density = 0.34;  // garments fill more of the frame than digits
    p.noise = 0.17;
    p.ambiguous_fraction = 0.38;
    p.max_shift = 3;
    p.blobs = 3;
    p.seed = seed;
    Dataset ds = make_image_like(p);
    ds.name = "fmnist-like";
    return ds;
}

Dataset make_cifar2_like(std::size_t examples_per_class, std::uint64_t seed) {
    ImageLikeParams p;
    p.width = 32;
    p.height = 32;
    p.num_classes = 2;
    p.examples_per_class = examples_per_class;
    p.fill_density = 0.30;
    p.noise = 0.26;        // natural images booleanize noisily
    p.ambiguous_fraction = 0.50;
    p.max_shift = 5;
    p.blobs = 5;
    p.seed = seed;
    Dataset ds = make_image_like(p);
    ds.name = "cifar2-like";
    return ds;
}

Dataset make_kws6_like(std::size_t examples_per_class, std::uint64_t seed) {
    AudioLikeParams p;
    p.bands = 13;
    p.frames = 29;  // 13*29 = 377 input bits, as in the paper's KWS6 model
    p.num_classes = 6;
    p.examples_per_class = examples_per_class;
    p.noise = 0.22;
    p.template_density = 0.30;
    p.max_frame_shift = 4;
    p.seed = seed;
    Dataset ds = make_audio_like(p);
    ds.name = "kws6-like";
    return ds;
}

}  // namespace matador::data
