#include "core/compact_view.hpp"

namespace adhoc {

LocalViewScratch& LocalViewScratch::tls() {
    thread_local LocalViewScratch arena;
    return arena;
}

void LocalViewScratch::compile(const View& view) {
    compact.bind(view.local());
    // Status and priorities: always per-call (they encode broadcast state).
    // Members are visible by construction, so no membership test.
    const std::uint32_t m = compact.size;
    for (std::uint32_t i = 0; i < m; ++i) {
        const NodeId v = compact.members[i];
        const NodeStatus st = view.member_status(v);
        compact.status[i] = st;
        compact.priority[i] = view.keys().evaluate(v, st);
    }
}

}  // namespace adhoc
