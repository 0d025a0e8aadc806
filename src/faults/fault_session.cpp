#include "faults/fault_session.hpp"

#include <algorithm>
#include <cassert>

namespace adhoc::faults {

void FaultSession::reset(const FaultPlan& plan, std::size_t n) {
    plan_ = &plan;
    node_up_.assign(n, 1);
    down_links_.clear();
    down_slot_.clear();
    asymmetry_.clear();
    for (std::size_t i = 0; i < plan.asymmetry.size(); ++i) {
        asymmetry_.try_emplace(link_key(plan.asymmetry[i].link), static_cast<std::uint32_t>(i));
    }
    draw_counter_ = 0;
}

void FaultSession::apply(const FaultEvent& event) {
    assert(plan_ != nullptr);
    switch (event.kind) {
        case FaultKind::kNodeCrash:
            if (event.node < node_up_.size()) node_up_[event.node] = 0;
            break;
        case FaultKind::kNodeRecover:
            if (event.node < node_up_.size()) node_up_[event.node] = 1;
            break;
        case FaultKind::kLinkDown: {
            const Edge c = canonical(event.link);
            const auto slot = static_cast<std::uint32_t>(down_links_.size());
            if (down_slot_.try_emplace(link_key(c), slot).second) down_links_.push_back(c);
            break;
        }
        case FaultKind::kLinkUp: {
            const auto it = down_slot_.find(link_key(canonical(event.link)));
            if (it == down_slot_.end()) break;
            // Swap-remove: the last link takes the freed slot.
            const std::uint32_t slot = it->second;
            down_slot_.erase(it);
            const Edge last = down_links_.back();
            down_links_.pop_back();
            if (slot < down_links_.size()) {
                down_links_[slot] = last;
                down_slot_[link_key(last)] = slot;
            }
            break;
        }
    }
}

bool FaultSession::drop_directed(NodeId from, NodeId to) {
    assert(plan_ != nullptr);
    double loss = 0.0;
    if (!asymmetry_.empty()) {
        const auto it = asymmetry_.find(link_key(canonical(Edge{from, to})));
        if (it != asymmetry_.end()) {
            const LinkAsymmetry& asym = plan_->asymmetry[it->second];
            loss = (from <= to) ? asym.loss_ab : asym.loss_ba;
        }
    }
    // Advance the counter even for loss-free links: the stream position
    // depends only on the *order* of delivery attempts, which the
    // deterministic event loop fixes, not on which links carry loss.
    const std::uint64_t i = draw_counter_++;
    if (loss <= 0.0) return false;
    const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) |
                              static_cast<std::uint64_t>(to);
    const std::uint64_t h = runner::splitmix64(plan_->loss_stream_seed ^
                                               runner::splitmix64(key ^ (i * 0x9e3779b97f4a7c15ULL)));
    // Top 53 bits -> uniform double in [0, 1), the standard conversion.
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < loss;
}

std::vector<char> FaultSession::down_mask() const {
    std::vector<char> mask(node_up_.size(), 0);
    for (std::size_t v = 0; v < node_up_.size(); ++v) mask[v] = node_up_[v] ? 0 : 1;
    return mask;
}

FinalFaultState final_fault_state(const FaultPlan& plan, std::size_t n) {
    FaultSession session;
    session.reset(plan, n);
    for (const FaultEvent& e : plan.events) session.apply(e);
    FinalFaultState state;
    state.node_down = session.down_mask();
    state.links_down = session.down_links();
    std::sort(state.links_down.begin(), state.links_down.end());
    return state;
}

}  // namespace adhoc::faults
