/**
 * @file
 * Query automaton compiled from a path expression (paper Figure 5).
 *
 * A path with n steps yields states 0..n: state i means "the first i
 * steps have been matched on the path from the root to the current
 * value".  State n is ACCEPT.  A failed transition yields the special
 * UNMATCHED state.  The per-level stack the paper describes is owned by
 * the *caller*: the recursive-descent streamer keeps it implicitly in
 * its call stack, while the JPStream-style baseline keeps an explicit
 * query stack — both drive their transitions through this class so all
 * engines share one matching semantics.
 */
#ifndef JSONSKI_PATH_AUTOMATON_H
#define JSONSKI_PATH_AUTOMATON_H

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "path/ast.h"

namespace jsonski::path {

/** See file comment. */
class QueryAutomaton
{
  public:
    /** Sentinel state for "matching failed at this level". */
    static constexpr int kUnmatched = -1;

    explicit QueryAutomaton(PathQuery query) : query_(std::move(query)) {}

    /** The compiled query. */
    const PathQuery& query() const { return query_; }

    /** Initial state (root value reached, nothing matched yet). */
    int start() const { return 0; }

    /** Accepting state (every step matched). */
    int accept() const { return static_cast<int>(query_.size()); }

    /** True when @p state is the accepting state. */
    bool isAccept(int state) const { return state == accept(); }

    /**
     * [Key] transition: object attribute @p key consumed while the
     * current level's state is @p state.
     */
    int
    onKey(int state, std::string_view key) const
    {
        if (state < 0)
            return kUnmatched;
        if (isAccept(state)) {
            // Values inside an accepted subtree only stay live under a
            // terminal descendant step, which keeps searching: a
            // matching name re-accepts, anything else resumes the
            // search state.
            if (query_.hasTerminalDescendant()) {
                const PathStep& d = query_[query_.size() - 1];
                return d.key == key ? state : state - 1;
            }
            return kUnmatched;
        }
        const PathStep& s = query_[static_cast<size_t>(state)];
        if (s.kind == PathStep::Kind::Key && s.key == key)
            return state + 1;
        if (s.kind == PathStep::Kind::Descendant)
            return s.key == key ? state + 1 : state; // stay at any depth
        return kUnmatched;
    }

    /**
     * Array-element transition: element at position @p idx of an array
     * whose own state is @p state.
     */
    int
    onElement(int state, size_t idx) const
    {
        if (state < 0)
            return kUnmatched;
        if (isAccept(state)) {
            // Inside an accepted array under a terminal descendant
            // step, elements keep the search alive but never match.
            return query_.hasTerminalDescendant() ? state - 1
                                                  : kUnmatched;
        }
        const PathStep& s = query_[static_cast<size_t>(state)];
        if (s.isArrayStep() && s.coversIndex(idx))
            return state + 1;
        if (s.kind == PathStep::Kind::Descendant)
            return state; // stay at any depth
        return kUnmatched;
    }

    /**
     * Container type the value at @p state must have for matching to
     * continue (paper §3.2 type inference).  Accepting values may be of
     * any type.
     */
    ExpectedType
    containerAt(int state) const
    {
        if (state < 0 || isAccept(state))
            return ExpectedType::Any;
        const PathStep& s = query_[static_cast<size_t>(state)];
        if (s.kind == PathStep::Kind::Descendant)
            return ExpectedType::Any;
        return s.isArrayStep() ? ExpectedType::Array
                               : ExpectedType::Object;
    }

    /**
     * For array steps: the half-open index range [lo, hi) the step
     * selects.  @pre containerAt(state) == ExpectedType::Array
     */
    void
    indexRange(int state, size_t& lo, size_t& hi) const
    {
        const PathStep& s = query_[static_cast<size_t>(state)];
        lo = s.lo;
        hi = s.hi;
    }

  private:
    PathQuery query_;
};

/**
 * Multiset of NFA states for the nondeterministic query surface
 * (interior descendants and filters; DESIGN.md §13).  State i means
 * "the first i steps matched along some root-to-here path"; the count
 * is the number of distinct such paths, and a value is emitted once
 * per accepting path.  Kept sorted by state; tiny (bounded by query
 * length), so linear operations are fine.
 */
struct NfaSet
{
    std::vector<std::pair<size_t, uint64_t>> states;

    bool empty() const { return states.empty(); }

    void
    add(size_t state, uint64_t count)
    {
        for (auto& [s, c] : states) {
            if (s == state) {
                c += count;
                return;
            }
        }
        states.emplace_back(state, count);
        for (size_t i = states.size(); i > 1; --i) {
            if (states[i - 1].first < states[i - 2].first)
                std::swap(states[i - 1], states[i - 2]);
            else
                break;
        }
    }

    /** Accepting-path multiplicity (state == q.size()). */
    uint64_t
    acceptCount(const PathQuery& q) const
    {
        for (const auto& [s, c] : states) {
            if (s == q.size())
                return c;
        }
        return 0;
    }

    /** Copy without the accepting state. */
    NfaSet
    withoutAccept(const PathQuery& q) const
    {
        NfaSet out;
        for (const auto& [s, c] : states) {
            if (s != q.size())
                out.states.emplace_back(s, c);
        }
        return out;
    }
};

/**
 * Can the value opening with byte @p first extend a match through Key
 * state @p s?  The next step's G1 type (DESIGN.md §15): an accept or
 * descendant step takes any value, an array step (filters included) an
 * array, a key step an object.
 */
inline bool
nfaKeyFits(const PathQuery& q, size_t s, char first)
{
    if (s + 1 == q.size() || q[s + 1].kind == PathStep::Kind::Descendant)
        return true;
    return first == (q[s + 1].isArrayStep() ? '[' : '{');
}

/**
 * [Key] transition over the multiset.  Accepting states are dropped:
 * whenever state n is produced by a descendant step, the searching
 * state that produced it stays co-resident in the set, so the
 * continued search the deterministic automaton emulates with its
 * "state - 1" trick is already represented.
 *
 * @p consumed (parallel to in.states, carried across the members of
 * ONE object) pins the engines' duplicate-key semantics: a Key step
 * binds to one member with its name only — the streamer leaves the
 * object via G4 after that member — while a Descendant step keeps
 * examining every member, duplicates included.  Entries are marked
 * here when a Key state advances.  With the value's first byte
 * @p value_first a Key state binds the first member whose value fits
 * (nfaKeyFits; the streamers' rule), with '\0' the first member of
 * the name (the DOM oracle's rule).
 */
inline NfaSet
nfaOnKey(const PathQuery& q, const NfaSet& in, std::string_view key,
         std::vector<char>* consumed = nullptr, char value_first = '\0')
{
    NfaSet out;
    for (size_t i = 0; i < in.states.size(); ++i) {
        auto [s, c] = in.states[i];
        if (s >= q.size())
            continue;
        const PathStep& step = q[s];
        if (step.kind == PathStep::Kind::Key) {
            if (consumed && (*consumed)[i])
                continue;
            if (step.key == key &&
                (value_first == '\0' || nfaKeyFits(q, s, value_first))) {
                out.add(s + 1, c);
                if (consumed)
                    (*consumed)[i] = 1;
            }
        } else if (step.kind == PathStep::Kind::Descendant) {
            out.add(s, c); // keep searching at any depth
            if (step.key == key)
                out.add(s + 1, c);
        }
    }
    return out;
}

/**
 * Array-element transition over the multiset.  Filter steps cannot be
 * resolved from the index alone: their (state, count) pairs are
 * appended to @p pending_filters and the caller adds (state + 1,
 * count) for each verdict that comes back true.
 */
inline NfaSet
nfaOnElement(const PathQuery& q, const NfaSet& in, size_t idx,
             std::vector<std::pair<size_t, uint64_t>>* pending_filters)
{
    NfaSet out;
    for (const auto& [s, c] : in.states) {
        if (s >= q.size())
            continue;
        const PathStep& step = q[s];
        if (step.kind == PathStep::Kind::Filter) {
            if (pending_filters)
                pending_filters->emplace_back(s, c);
        } else if (step.isArrayStep()) {
            if (step.coversIndex(idx))
                out.add(s + 1, c);
        } else if (step.kind == PathStep::Kind::Descendant) {
            out.add(s, c);
        }
    }
    return out;
}

/** Can entering an object make progress from @p set? */
inline bool
nfaWantsObject(const PathQuery& q, const NfaSet& set)
{
    for (const auto& [s, c] : set.states) {
        (void)c;
        if (s >= q.size())
            continue;
        if (q[s].kind == PathStep::Kind::Key ||
            q[s].kind == PathStep::Kind::Descendant)
            return true;
    }
    return false;
}

/** Can entering an array make progress from @p set? */
inline bool
nfaWantsArray(const PathQuery& q, const NfaSet& set)
{
    for (const auto& [s, c] : set.states) {
        (void)c;
        if (s >= q.size())
            continue;
        if (q[s].isArrayStep() ||
            q[s].kind == PathStep::Kind::Descendant)
            return true;
    }
    return false;
}

/** Is any live state a descendant search? */
inline bool
nfaHasDescendant(const PathQuery& q, const NfaSet& set)
{
    for (const auto& [s, c] : set.states) {
        (void)c;
        if (s < q.size() && q[s].kind == PathStep::Kind::Descendant)
            return true;
    }
    return false;
}

} // namespace jsonski::path

#endif // JSONSKI_PATH_AUTOMATON_H
