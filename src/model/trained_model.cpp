#include "model/trained_model.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace matador::model {

bool Clause::evaluate(const util::BitVector& x) const {
    if (empty()) return false;  // pruned in hardware
    // All included positive literals must be 1 ...
    if (!include_pos.is_subset_of(x)) return false;
    // ... and no included negated literal's feature may be 1.
    if (include_neg.intersects(x)) return false;
    return true;
}

bool Clause::evaluate_partial(const util::BitVector& x, std::size_t lo,
                              std::size_t hi) const {
    for (std::size_t f = lo; f < hi && f < x.size(); ++f) {
        if (include_pos.get(f) && !x.get(f)) return false;
        if (include_neg.get(f) && x.get(f)) return false;
    }
    return true;
}

TrainedModel::TrainedModel(std::size_t num_features, std::size_t num_classes,
                           std::size_t clauses_per_class)
    : num_features_(num_features),
      num_classes_(num_classes),
      clauses_per_class_(clauses_per_class) {
    clauses_.resize(num_classes);
    for (auto& cls : clauses_) {
        cls.resize(clauses_per_class);
        for (std::size_t j = 0; j < clauses_per_class; ++j) {
            cls[j].include_pos = util::BitVector(num_features);
            cls[j].include_neg = util::BitVector(num_features);
            cls[j].polarity = (j % 2 == 0) ? +1 : -1;
        }
    }
}

Clause& TrainedModel::clause(std::size_t c, std::size_t j) { return clauses_.at(c).at(j); }
const Clause& TrainedModel::clause(std::size_t c, std::size_t j) const {
    return clauses_.at(c).at(j);
}

std::vector<int> TrainedModel::class_sums(const util::BitVector& x) const {
    std::vector<int> sums(num_classes_, 0);
    for (std::size_t c = 0; c < num_classes_; ++c)
        for (const auto& cl : clauses_[c])
            if (cl.evaluate(x)) sums[c] += cl.polarity;
    return sums;
}

std::uint32_t TrainedModel::predict(const util::BitVector& x) const {
    const auto sums = class_sums(x);
    std::size_t best = 0;
    for (std::size_t c = 1; c < sums.size(); ++c)
        if (sums[c] > sums[best]) best = c;
    return std::uint32_t(best);
}

std::size_t TrainedModel::total_includes() const {
    std::size_t n = 0;
    for (const auto& cls : clauses_)
        for (const auto& cl : cls) n += cl.num_includes();
    return n;
}

std::size_t TrainedModel::empty_clauses() const {
    std::size_t n = 0;
    for (const auto& cls : clauses_)
        for (const auto& cl : cls) n += cl.empty();
    return n;
}

double TrainedModel::include_density() const {
    const double slots = double(total_clauses()) * 2.0 * double(num_features_);
    return slots == 0 ? 0.0 : double(total_includes()) / slots;
}

std::uint64_t TrainedModel::content_hash() const {
    // FNV-1a; self-contained so the model layer stays independent of core.
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    mix(num_features_);
    mix(num_classes_);
    mix(clauses_per_class_);
    for (const auto& cls : clauses_) {
        for (const auto& cl : cls) {
            mix(std::uint64_t(std::int64_t(cl.polarity)));
            mix(cl.include_pos.hash());
            mix(cl.include_neg.hash());
        }
    }
    return h;
}

void TrainedModel::save(std::ostream& os) const {
    os << "MATADOR-TM v" << kFormatVersion << "\n";
    os << "features " << num_features_ << "\n";
    os << "classes " << num_classes_ << "\n";
    os << "clauses_per_class " << clauses_per_class_ << "\n";
    for (std::size_t c = 0; c < num_classes_; ++c) {
        for (std::size_t j = 0; j < clauses_per_class_; ++j) {
            const auto& cl = clauses_[c][j];
            os << "clause " << c << " " << j << " " << cl.polarity << " pos";
            for (auto f : cl.include_pos.set_bits()) os << " " << f;
            os << " neg";
            for (auto f : cl.include_neg.set_bits()) os << " " << f;
            os << "\n";
        }
    }
    os << "end\n";
}

void TrainedModel::save_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("TrainedModel::save_file: cannot open " + path);
    save(os);
}

TrainedModel TrainedModel::load(std::istream& is) {
    std::string line;
    if (!std::getline(is, line))
        throw std::runtime_error("TrainedModel::load: truncated file (no header)");
    const std::string magic = "MATADOR-TM v";
    if (line.rfind(magic, 0) != 0)
        throw std::runtime_error("TrainedModel::load: bad magic (not a model file)");
    unsigned version = 0;
    try {
        std::size_t pos = 0;
        const std::string digits = line.substr(magic.size());
        version = unsigned(std::stoul(digits, &pos));
        if (pos != digits.size()) throw std::invalid_argument(digits);
    } catch (...) {
        throw std::runtime_error("TrainedModel::load: corrupt format-version header: " +
                                 line);
    }
    if (version == 0 || version > kFormatVersion)
        throw std::runtime_error(
            "TrainedModel::load: file format v" + std::to_string(version) +
            " is not supported (this build reads up to v" +
            std::to_string(kFormatVersion) + ")");

    auto expect_kv = [&](const std::string& key) -> std::size_t {
        if (!std::getline(is, line))
            throw std::runtime_error("TrainedModel::load: truncated header");
        std::istringstream ss(line);
        std::string k;
        std::size_t v;
        if (!(ss >> k >> v) || k != key)
            throw std::runtime_error("TrainedModel::load: expected '" + key + "'");
        return v;
    };

    const auto bound = [](const char* field, std::size_t v, std::size_t max) {
        if (v > max)
            throw std::runtime_error(std::string("TrainedModel::load: ") + field + " " +
                                     std::to_string(v) + " exceeds the limit of " +
                                     std::to_string(max));
        return v;
    };
    const std::size_t features = bound("features", expect_kv("features"), kMaxFeatures);
    const std::size_t classes = bound("classes", expect_kv("classes"), kMaxClasses);
    const std::size_t cpc =
        bound("clauses_per_class", expect_kv("clauses_per_class"), kMaxClausesPerClass);
    bound("classes x clauses_per_class", classes * cpc, kMaxClauses);
    bound("features x classes x clauses_per_class", features * classes * cpc,
          kMaxIncludeBits);
    TrainedModel m(features, classes, cpc);

    while (std::getline(is, line)) {
        if (line == "end") return m;
        std::istringstream ss(line);
        std::string tag;
        ss >> tag;
        if (tag.empty()) continue;
        if (tag != "clause")
            throw std::runtime_error("TrainedModel::load: unexpected line: " + line);
        std::size_t c, j;
        int pol;
        std::string marker;
        if (!(ss >> c >> j >> pol >> marker) || marker != "pos")
            throw std::runtime_error("TrainedModel::load: malformed clause line");
        if (c >= classes || j >= cpc)
            throw std::runtime_error("TrainedModel::load: clause index out of range");
        // Training, export and the RTL class sum give even clauses +1 and
        // odd ones -1; any other polarity would be voted inconsistently.
        if (pol != (j % 2 == 0 ? 1 : -1))
            throw std::runtime_error("TrainedModel::load: clause " + std::to_string(c) + " " +
                                     std::to_string(j) + " has polarity " +
                                     std::to_string(pol) + ", its index implies " +
                                     (j % 2 == 0 ? "1" : "-1"));
        auto& cl = m.clause(c, j);
        cl.polarity = pol;
        std::string tok;
        bool in_neg = false;
        while (ss >> tok) {
            if (tok == "neg") {
                in_neg = true;
                continue;
            }
            std::size_t f = 0;
            try {
                std::size_t pos = 0;
                f = std::stoul(tok, &pos);
                if (pos != tok.size()) throw std::invalid_argument(tok);
            } catch (...) {
                throw std::runtime_error("TrainedModel::load: corrupt literal token '" +
                                         tok + "'");
            }
            if (f >= features)
                throw std::runtime_error("TrainedModel::load: literal index out of range");
            (in_neg ? cl.include_neg : cl.include_pos).set(f);
        }
        if (!in_neg) throw std::runtime_error("TrainedModel::load: missing 'neg' marker");
    }
    throw std::runtime_error("TrainedModel::load: missing 'end'");
}

TrainedModel TrainedModel::load_file(const std::string& path) {
    std::ifstream is(path);
    if (!is) throw std::runtime_error("TrainedModel::load_file: cannot open " + path);
    return load(is);
}

}  // namespace matador::model
