#include "sim/plan.h"

#include <algorithm>
#include <bit>

namespace wsn {

namespace {

/// The list contract: offsets ≥ 1 and strictly increasing.
void check_offsets(std::span<const Slot> offsets) {
  Slot last = 0;
  for (const Slot offset : offsets) {
    WSN_EXPECTS(offset > last);
    last = offset;
  }
}

}  // namespace

RelayPlan RelayPlan::empty(std::size_t count, NodeId source) {
  return Writer(count, source).finish();
}

RelayPlan RelayPlan::adopt(NodeId source, std::vector<std::uint32_t> starts,
                           std::vector<Slot> offsets) {
  RelayPlan plan;
  plan.source_ = source;
  plan.starts_ = std::move(starts);
  plan.offsets_ = std::move(offsets);
  plan.total_ = plan.offsets_.size();
  // Files each relay whose parts are in bounds; validate() rejects the
  // rest before any engine reads the sets.
  const std::size_t n = plan.num_nodes();
  plan.size_relay_sets(n);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t lo = plan.starts_[v];
    const std::uint32_t hi = plan.starts_[v + 1];
    if (lo < hi && hi <= plan.offsets_.size()) {
      plan.file_relay(v, std::span<const Slot>(plan.offsets_.data() + lo,
                                               hi - lo));
    }
  }
  return plan;
}

std::size_t RelayPlan::relay_count() const noexcept {
  std::size_t count = 0;
  for (std::size_t w = 0; w < plain_relays_.size(); ++w) {
    count += static_cast<std::size_t>(
        std::popcount(plain_relays_[w] | other_relays_[w]));
  }
  return count;
}

std::vector<NodeId> RelayPlan::retransmitters() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (offsets(v).size() > 1) out.push_back(v);
  }
  return out;
}

void RelayPlan::validate() const {
  WSN_EXPECTS(!starts_.empty() && starts_.front() == 0);
  if (checked_) return;
  WSN_EXPECTS(starts_.back() == offsets_.size());
  WSN_EXPECTS(source_ < num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    WSN_EXPECTS(starts_[v] <= starts_[v + 1]);
    check_offsets(offsets(v));
  }
  WSN_EXPECTS(!offsets(source_).empty());
}

void RelayPlan::set_offsets(NodeId v, std::vector<Slot> offsets) {
  WSN_EXPECTS(v < num_nodes());
  WSN_EXPECTS(v != source_ || !offsets.empty());
  check_offsets(offsets);
  std::vector<Slot>& list = edit_of(v);
  total_ = total_ - list.size() + offsets.size();
  list = std::move(offsets);
  file_relay(v, list);
}

void RelayPlan::append_offset(NodeId v, Slot offset) {
  WSN_EXPECTS(v < num_nodes());
  std::vector<Slot>& list = edit_of(v);
  WSN_EXPECTS(offset > (list.empty() ? 0 : list.back()));
  list.push_back(offset);
  total_ += 1;
  file_relay(v, list);
}

std::size_t RelayPlan::array_bytes() const noexcept {
  std::size_t bytes = starts_.size() * sizeof(std::uint32_t) +
                      offsets_.size() * sizeof(Slot) +
                      (plain_relays_.size() + other_relays_.size() +
                       edited_.size()) *
                          sizeof(std::uint64_t);
  for (const auto& [v, list] : edits_) bytes += list.size() * sizeof(Slot);
  return bytes;
}

bool operator==(const RelayPlan& a, const RelayPlan& b) {
  if (a.source_ != b.source_ || a.num_nodes() != b.num_nodes() ||
      a.total_ != b.total_) {
    return false;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    if (!std::ranges::equal(a.offsets(v), b.offsets(v))) return false;
  }
  return true;
}

void RelayPlan::size_relay_sets(std::size_t n) {
  plain_relays_.assign((n + 63) / 64, 0);
  other_relays_.assign((n + 63) / 64, 0);
}

void RelayPlan::file_relay(NodeId v, std::span<const Slot> offsets) noexcept {
  const std::uint64_t mask = std::uint64_t{1} << (v % 64);
  const bool plain = offsets.size() == 1 && offsets[0] == 1;
  const bool other = !plain && !offsets.empty();
  plain_relays_[v / 64] = (plain_relays_[v / 64] & ~mask) | (plain ? mask : 0);
  other_relays_[v / 64] = (other_relays_[v / 64] & ~mask) | (other ? mask : 0);
}

std::vector<Slot>& RelayPlan::edit_of(NodeId v) {
  if (is_edited(v)) return edits_.find(v)->second;
  if (edited_.empty()) edited_.assign(plain_relays_.size(), 0);
  edited_[v / 64] |= std::uint64_t{1} << (v % 64);
  const std::span<const Slot> base(offsets_.data() + starts_[v],
                                   starts_[v + 1] - starts_[v]);
  return edits_.try_emplace(v, base.begin(), base.end()).first->second;
}

RelayPlan::Writer::Writer(std::size_t count, NodeId source) {
  WSN_EXPECTS(source < count);
  plan_.source_ = source;
  plan_.starts_.resize(count + 1);
  plan_.size_relay_sets(count);
}

void RelayPlan::Writer::set(NodeId v, std::span<const Slot> offsets) {
  WSN_EXPECTS(v >= next_ && v < plan_.num_nodes());
  skip_to(v);
  append(v, offsets);
}

RelayPlan RelayPlan::Writer::finish() && {
  skip_to(static_cast<NodeId>(plan_.num_nodes()));
  WSN_EXPECTS(plan_.is_relay(plan_.source_));
  plan_.total_ = plan_.offsets_.size();
  plan_.checked_ = true;
  return std::move(plan_);
}

void RelayPlan::Writer::skip_to(NodeId v) {
  const NodeId source = plan_.source_;
  if (next_ <= source && source < v) {
    skip_to(source);
    static constexpr Slot kSlotOne[] = {1};
    append(source, kSlotOne);
  }
  const auto end = static_cast<std::uint32_t>(plan_.offsets_.size());
  std::fill(plan_.starts_.begin() + next_ + 1, plan_.starts_.begin() + v + 1,
            end);
  next_ = v;
}

void RelayPlan::Writer::append(NodeId v, std::span<const Slot> offsets) {
  check_offsets(offsets);
  plan_.offsets_.insert(plan_.offsets_.end(), offsets.begin(), offsets.end());
  plan_.starts_[v + 1] = static_cast<std::uint32_t>(plan_.offsets_.size());
  if (!offsets.empty()) plan_.file_relay(v, offsets);
  next_ = v + 1;
}

}  // namespace wsn
