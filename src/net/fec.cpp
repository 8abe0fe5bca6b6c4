#include "net/fec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mvc::net {

// --------------------------------------------------------------------- gf256

namespace gf256 {
namespace {
struct Tables {
    std::array<std::uint8_t, 512> exp{};
    std::array<int, 256> log{};
    Tables() {
        int x = 1;
        for (int i = 0; i < 255; ++i) {
            exp[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
            log[static_cast<std::size_t>(x)] = i;
            x <<= 1;
            if (x & 0x100) x ^= 0x11d;  // primitive polynomial x^8+x^4+x^3+x^2+1
        }
        for (int i = 255; i < 512; ++i) exp[static_cast<std::size_t>(i)] = exp[static_cast<std::size_t>(i - 255)];
        log[0] = 0;  // never used; mul/div guard zero explicitly
    }
};
const Tables& tables() {
    static const Tables t;
    return t;
}
}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
    if (a == 0 || b == 0) return 0;
    const auto& t = tables();
    return t.exp[static_cast<std::size_t>(t.log[a] + t.log[b])];
}

std::uint8_t div(std::uint8_t a, std::uint8_t b) {
    if (b == 0) throw std::domain_error("gf256: division by zero");
    if (a == 0) return 0;
    const auto& t = tables();
    return t.exp[static_cast<std::size_t>(t.log[a] - t.log[b] + 255)];
}

std::uint8_t inv(std::uint8_t a) { return div(1, a); }

std::uint8_t exp(int e) {
    const auto& t = tables();
    e %= 255;
    if (e < 0) e += 255;
    return t.exp[static_cast<std::size_t>(e)];
}

}  // namespace gf256

// --------------------------------------------------------------- ReedSolomon

namespace {

using Matrix = std::vector<std::vector<std::uint8_t>>;

/// Invert a square matrix over GF(256) by Gauss-Jordan elimination.
Matrix invert(Matrix m) {
    const std::size_t n = m.size();
    Matrix inv(n, std::vector<std::uint8_t>(n, 0));
    for (std::size_t i = 0; i < n; ++i) inv[i][i] = 1;

    for (std::size_t col = 0; col < n; ++col) {
        // Find a pivot row.
        std::size_t pivot = col;
        while (pivot < n && m[pivot][col] == 0) ++pivot;
        if (pivot == n) throw std::runtime_error("gf256 matrix not invertible");
        std::swap(m[pivot], m[col]);
        std::swap(inv[pivot], inv[col]);

        const std::uint8_t piv_inv = gf256::inv(m[col][col]);
        for (std::size_t j = 0; j < n; ++j) {
            m[col][j] = gf256::mul(m[col][j], piv_inv);
            inv[col][j] = gf256::mul(inv[col][j], piv_inv);
        }
        for (std::size_t row = 0; row < n; ++row) {
            if (row == col || m[row][col] == 0) continue;
            const std::uint8_t factor = m[row][col];
            for (std::size_t j = 0; j < n; ++j) {
                m[row][j] = static_cast<std::uint8_t>(m[row][j] ^ gf256::mul(factor, m[col][j]));
                inv[row][j] =
                    static_cast<std::uint8_t>(inv[row][j] ^ gf256::mul(factor, inv[col][j]));
            }
        }
    }
    return inv;
}

Matrix multiply(const Matrix& a, const Matrix& b) {
    const std::size_t rows = a.size();
    const std::size_t inner = b.size();
    const std::size_t cols = b[0].size();
    Matrix out(rows, std::vector<std::uint8_t>(cols, 0));
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t k = 0; k < inner; ++k) {
            const std::uint8_t aik = a[i][k];
            if (aik == 0) continue;
            for (std::size_t j = 0; j < cols; ++j) {
                out[i][j] = static_cast<std::uint8_t>(out[i][j] ^ gf256::mul(aik, b[k][j]));
            }
        }
    }
    return out;
}

}  // namespace

ReedSolomon::ReedSolomon(std::size_t k, std::size_t r) : k_(k), r_(r) {
    if (k == 0) throw std::invalid_argument("ReedSolomon: k must be positive");
    if (k + r > 255) throw std::invalid_argument("ReedSolomon: k + r must be <= 255");

    // Vandermonde (k+r) x k: row i evaluates the data polynomial at alpha^i.
    Matrix vander(k_ + r_, std::vector<std::uint8_t>(k_, 0));
    for (std::size_t i = 0; i < k_ + r_; ++i) {
        for (std::size_t j = 0; j < k_; ++j) {
            vander[i][j] = gf256::exp(static_cast<int>(i * j));
        }
    }
    // Make it systematic: M = V * (top k rows of V)^-1, so the first k rows
    // become the identity and parity rows are combinations of the data.
    Matrix top(vander.begin(), vander.begin() + static_cast<std::ptrdiff_t>(k_));
    matrix_ = multiply(vander, invert(std::move(top)));
}

std::vector<std::vector<std::uint8_t>> ReedSolomon::encode(
    std::span<const std::vector<std::uint8_t>> data) const {
    if (data.size() != k_) throw std::invalid_argument("ReedSolomon::encode: need k shards");
    const std::size_t len = data[0].size();
    for (const auto& shard : data) {
        if (shard.size() != len)
            throw std::invalid_argument("ReedSolomon::encode: unequal shard sizes");
    }
    std::vector<std::vector<std::uint8_t>> parity(r_, std::vector<std::uint8_t>(len, 0));
    for (std::size_t p = 0; p < r_; ++p) {
        const auto& row = matrix_[k_ + p];
        for (std::size_t j = 0; j < k_; ++j) {
            const std::uint8_t coeff = row[j];
            if (coeff == 0) continue;
            const auto& src = data[j];
            auto& dst = parity[p];
            for (std::size_t b = 0; b < len; ++b) {
                dst[b] = static_cast<std::uint8_t>(dst[b] ^ gf256::mul(coeff, src[b]));
            }
        }
    }
    return parity;
}

bool ReedSolomon::reconstruct(
    std::vector<std::optional<std::vector<std::uint8_t>>>& shards) const {
    if (shards.size() != k_ + r_)
        throw std::invalid_argument("ReedSolomon::reconstruct: need k + r slots");

    std::vector<std::size_t> present;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        if (shards[i].has_value()) present.push_back(i);
    }
    if (present.size() < k_) return false;

    bool any_data_missing = false;
    for (std::size_t i = 0; i < k_; ++i) {
        if (!shards[i].has_value()) any_data_missing = true;
    }

    if (any_data_missing) {
        // Build the decode matrix from the first k surviving rows.
        Matrix sub(k_, std::vector<std::uint8_t>(k_, 0));
        std::vector<std::size_t> rows(present.begin(), present.begin() + static_cast<std::ptrdiff_t>(k_));
        for (std::size_t i = 0; i < k_; ++i) sub[i] = matrix_[rows[i]];
        const Matrix dec = invert(std::move(sub));

        const std::size_t len = shards[rows[0]]->size();
        for (std::size_t d = 0; d < k_; ++d) {
            if (shards[d].has_value()) continue;
            std::vector<std::uint8_t> out(len, 0);
            for (std::size_t j = 0; j < k_; ++j) {
                const std::uint8_t coeff = dec[d][j];
                if (coeff == 0) continue;
                const auto& src = *shards[rows[j]];
                for (std::size_t b = 0; b < len; ++b) {
                    out[b] = static_cast<std::uint8_t>(out[b] ^ gf256::mul(coeff, src[b]));
                }
            }
            shards[d] = std::move(out);
        }
    }

    // Refill missing parity from the (now complete) data shards.
    std::vector<std::vector<std::uint8_t>> data;
    data.reserve(k_);
    for (std::size_t i = 0; i < k_; ++i) data.push_back(*shards[i]);
    auto parity = encode(data);
    for (std::size_t p = 0; p < r_; ++p) {
        if (!shards[k_ + p].has_value()) shards[k_ + p] = std::move(parity[p]);
    }
    return true;
}

// -------------------------------------------------------- AdaptiveRedundancy

AdaptiveRedundancy::AdaptiveRedundancy(double safety_factor, std::size_t max_parity)
    : safety_factor_(safety_factor), max_parity_(max_parity) {}

void AdaptiveRedundancy::observe(bool packet_lost) { loss_.add(packet_lost ? 1.0 : 0.0); }

std::size_t AdaptiveRedundancy::parity_for_block(std::size_t k) const {
    const double expected_losses = loss_.value() * static_cast<double>(k);
    const auto r = static_cast<std::size_t>(
        std::ceil(expected_losses * safety_factor_ + 0.5));
    return std::clamp<std::size_t>(r, 1, max_parity_);
}

// ------------------------------------------------------------------ FecStream

FecStream::FecStream(Backend& net, PacketDemux& src_demux, PacketDemux& dst_demux,
                     std::string flow, FecStreamOptions options)
    : net_(net),
      src_(src_demux.node()),
      dst_(dst_demux.node()),
      flow_(std::move(flow)),
      tx_(net.open_channel({.src = src_,
                            .dst = dst_,
                            .flow = flow_,
                            .options = {.priority = Priority::Realtime}})),
      options_(options) {
    if (options_.block_size == 0)
        throw std::invalid_argument("FecStream: block_size must be positive");
    dst_demux.on_flow(flow_, [this](Packet&& p) { handle_arrival(std::move(p)); });
    (void)src_demux;
}

double FecStream::redundancy_overhead() const {
    if (data_sent_ == 0) return 0.0;
    return static_cast<double>(parity_sent_) / static_cast<double>(data_sent_);
}

void FecStream::send(std::size_t size_bytes, Payload payload) {
    open_block_.push_back(Slot{size_bytes, std::move(payload), net_.clock().now()});
    if (open_block_.size() >= options_.block_size) seal_block();
}

void FecStream::flush() {
    if (!open_block_.empty()) seal_block();
}

void FecStream::seal_block() {
    const std::uint64_t block_id = next_block_++;
    const auto k = static_cast<std::uint32_t>(open_block_.size());
    const std::size_t r = options_.adaptive
                              ? adaptive_.parity_for_block(k)
                              : options_.parity;

    std::size_t max_bytes = 0;
    for (const auto& s : open_block_) max_bytes = std::max(max_bytes, s.size_bytes);

    // Ship the data packets.
    for (std::uint32_t i = 0; i < k; ++i) {
        Wire w{block_id, i, k, static_cast<std::uint32_t>(r),
               open_block_[i].payload, open_block_[i].sent_at};
        tx_.send(open_block_[i].size_bytes, std::move(w));
        ++data_sent_;
    }
    // Parity packets are the size of the largest data packet (RS shards).
    for (std::uint32_t p = 0; p < r; ++p) {
        Wire w{block_id, k + p, k, static_cast<std::uint32_t>(r), {}, net_.clock().now()};
        tx_.send(max_bytes, std::move(w));
        ++parity_sent_;
    }
    sender_blocks_.emplace(block_id, std::move(open_block_));
    open_block_.clear();
    open_block_.reserve(options_.block_size);

    // Bound sender memory; keep enough history that bursty senders (many
    // blocks per timeout window) can still deliver recovered payloads.
    while (sender_blocks_.size() > 1024) sender_blocks_.erase(sender_blocks_.begin());
}

void FecStream::handle_arrival(Packet&& p) {
    auto w = p.payload.take<Wire>();
    auto [it, inserted] = rx_.try_emplace(w.block);
    RxBlock& blk = it->second;
    if (inserted) {
        blk.k = w.k;
        blk.r = w.r;
        const std::uint64_t block_id = w.block;
        blk.timeout = net_.clock().schedule_after(
            options_.block_timeout, [this, block_id] { expire_block(block_id); });
    }
    if (blk.completed) return;

    if (w.index < w.k) {
        // Deliver direct data immediately.
        if (!blk.data.contains(w.index)) {
            if (delivered_cb_) delivered_cb_(w.app_payload, w.first_sent, true);
            adaptive_.observe(false);
            blk.data.emplace(w.index, std::move(w));
        }
    } else {
        ++blk.parity_arrived;
    }
    try_complete(it->first);
}

void FecStream::try_complete(std::uint64_t block_id) {
    auto it = rx_.find(block_id);
    if (it == rx_.end()) return;
    RxBlock& blk = it->second;
    if (blk.completed) return;
    if (blk.data.size() + blk.parity_arrived < blk.k) return;

    // Any k of k+r shards suffice (MDS property, verified on ReedSolomon by
    // the unit tests); recover the data packets that did not arrive.
    if (blk.data.size() < blk.k) {
        const auto senders = sender_blocks_.find(block_id);
        for (std::uint32_t i = 0; i < blk.k; ++i) {
            if (blk.data.contains(i)) continue;
            ++recovered_;
            adaptive_.observe(true);
            if (delivered_cb_ && senders != sender_blocks_.end()) {
                const Slot& s = senders->second[i];
                delivered_cb_(s.payload, s.sent_at, false);
            }
        }
    }
    blk.completed = true;
    net_.clock().cancel(blk.timeout);
    // Keep the completed marker briefly via the map; prune old blocks.
    while (rx_.size() > 2048) rx_.erase(rx_.begin());
}

void FecStream::expire_block(std::uint64_t block_id) {
    auto it = rx_.find(block_id);
    if (it == rx_.end() || it->second.completed) return;
    RxBlock& blk = it->second;
    const auto senders = sender_blocks_.find(block_id);
    for (std::uint32_t i = 0; i < blk.k; ++i) {
        if (blk.data.contains(i)) continue;
        ++unrecoverable_;
        adaptive_.observe(true);
        if (lost_cb_ && senders != sender_blocks_.end()) {
            const Slot& s = senders->second[i];
            lost_cb_(s.payload, s.sent_at);
        }
    }
    blk.completed = true;
}

}  // namespace mvc::net
