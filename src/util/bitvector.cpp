#include "util/bitvector.hpp"

#include <algorithm>
#include <stdexcept>

namespace matador::util {

BitVector BitVector::from_string(const std::string& bits) {
    BitVector v(bits.size());
    // One word at a time, branch-free inside: c - '0' is 0 or 1 for a
    // valid character and anything above 1 for every other byte, so the
    // OR of all of them exceeds 1 exactly when the word holds a bad one.
    for (std::size_t w = 0; w < v.words_.size(); ++w) {
        const std::size_t base = w * kWordBits;
        const std::size_t n = std::min(kWordBits, bits.size() - base);
        std::uint64_t word = 0;
        unsigned seen = 0;
        for (std::size_t j = 0; j < n; ++j) {
            const unsigned d =
                unsigned(static_cast<unsigned char>(bits[base + j])) - '0';
            seen |= d;
            word |= std::uint64_t(d & 1u) << j;
        }
        if (seen > 1)
            throw std::invalid_argument("BitVector::from_string: expected '0' or '1'");
        v.words_[w] = word;
    }
    return v;
}

void BitVector::fill(bool v) {
    const std::uint64_t w = v ? ~std::uint64_t{0} : 0;
    for (auto& word : words_) word = w;
    mask_tail();
}

std::size_t BitVector::count() const {
    std::size_t n = 0;
    for (auto w : words_) n += std::size_t(std::popcount(w));
    return n;
}

bool BitVector::none() const {
    for (auto w : words_)
        if (w != 0) return false;
    return true;
}

std::size_t BitVector::find_first() const {
    for (std::size_t w = 0; w < words_.size(); ++w)
        if (words_[w] != 0)
            return w * kWordBits + std::size_t(std::countr_zero(words_[w]));
    return size_;
}

std::size_t BitVector::find_next(std::size_t from) const {
    if (from + 1 >= size_) return size_;
    std::size_t i = from + 1;
    std::size_t w = i / kWordBits;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (i % kWordBits));
    while (true) {
        if (word != 0) return w * kWordBits + std::size_t(std::countr_zero(word));
        if (++w == words_.size()) return size_;
        word = words_[w];
    }
}

std::size_t BitVector::find_last() const {
    for (std::size_t w = words_.size(); w-- > 0;)
        if (words_[w] != 0)
            return w * kWordBits + (kWordBits - 1 - std::size_t(std::countl_zero(words_[w])));
    return size_;
}

std::vector<std::size_t> BitVector::set_bits() const {
    std::vector<std::size_t> out;
    out.reserve(count());
    for (std::size_t w = 0; w < words_.size(); ++w) {
        std::uint64_t word = words_[w];
        while (word != 0) {
            out.push_back(w * kWordBits + std::size_t(std::countr_zero(word)));
            word &= word - 1;
        }
    }
    return out;
}

BitVector& BitVector::operator&=(const BitVector& o) {
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= o.words_[w];
    return *this;
}

BitVector& BitVector::operator|=(const BitVector& o) {
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= o.words_[w];
    return *this;
}

BitVector& BitVector::operator^=(const BitVector& o) {
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= o.words_[w];
    return *this;
}

BitVector& BitVector::and_not(const BitVector& o) {
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= ~o.words_[w];
    return *this;
}

void BitVector::flip() {
    for (auto& w : words_) w = ~w;
    mask_tail();
}

bool BitVector::is_subset_of(const BitVector& o) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
        if ((words_[w] & ~o.words_[w]) != 0) return false;
    return true;
}

bool BitVector::intersects(const BitVector& o) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
        if ((words_[w] & o.words_[w]) != 0) return true;
    return false;
}

std::size_t BitVector::hamming_distance(const BitVector& o) const {
    std::size_t n = 0;
    for (std::size_t w = 0; w < words_.size(); ++w)
        n += std::size_t(std::popcount(words_[w] ^ o.words_[w]));
    return n;
}

BitVector BitVector::slice(std::size_t lo, std::size_t hi) const {
    BitVector out(hi - lo);
    for (std::size_t i = lo; i < hi; ++i)
        if (get(i)) out.set(i - lo);
    return out;
}

void BitVector::append(const BitVector& o) {
    const std::size_t base = size_;
    size_ += o.size_;
    words_.resize((size_ + kWordBits - 1) / kWordBits, 0);
    for (std::size_t i = 0; i < o.size_; ++i)
        if (o.get(i)) set(base + i);
}

std::uint64_t BitVector::hash() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (auto w : words_) {
        h ^= w;
        h *= 0x100000001b3ull;
    }
    h ^= size_;
    h *= 0x100000001b3ull;
    return h;
}

std::string BitVector::to_string() const {
    std::string s(size_, '0');
    for (std::size_t i = 0; i < size_; ++i)
        if (get(i)) s[i] = '1';
    return s;
}

}  // namespace matador::util
