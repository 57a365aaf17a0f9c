/**
 * @file
 * Bit-parallel fast-forward primitives (paper Section 4, Table 1).
 *
 * The Skipper advances a StreamCursor over query-irrelevant
 * substructures without tokenizing them.  Object/array ends are located
 * with the counting-based pairing strategy of Lemma 4.2 / Theorem 4.3:
 * per 64-byte word, close-metacharacter population counts are compared
 * against the number of still-unpaired openers, and the terminating
 * close character is selected directly from the bitmap.  Runs of
 * primitive attributes/elements are skipped with comma structural
 * intervals (Algorithm 4/5), batching whole runs per word.
 *
 * Invariant for every public method: on entry and exit the cursor
 * position is outside any string literal.
 *
 * Error handling contract: every method is safe on malformed input.
 * Truncated, unbalanced, or otherwise damaged documents raise
 * jsonski::ParseError carrying an ErrorCode and the byte position where
 * the damage was detected; no method reads past the cursor's size() or
 * leaves the position beyond it.  assert() is reserved for caller
 * contract violations (e.g. a @pre not met), never for input content.
 */
#ifndef JSONSKI_SKI_SKIPPER_H
#define JSONSKI_SKI_SKIPPER_H

#include <cstddef>
#include <cstdint>
#include <limits>

#include "index/structural_index.h"
#include "intervals/cursor.h"
#include "ski/stats.h"
#include "telemetry/telemetry.h"

namespace jsonski::ski {

/** See file comment. */
class Skipper
{
  public:
    /** Result of the attribute scan. */
    struct AttrResult
    {
        bool found = false;     ///< false: object ended (pos after '}')
        size_t key_begin = 0;   ///< first byte of the attribute name
        size_t key_end = 0;     ///< one past last byte (quotes excluded)
    };

    /** Result of element-level scans. */
    enum class ElemStop {
        Found, ///< positioned at the start of an element
        End,   ///< array ended; position is just past ']'
    };

    /** Value-type filter used by the G1 attribute scan. */
    enum class TypeFilter { Object, Array, Any };

    /**
     * @param cursor Cursor to drive; must outlive the skipper.
     * @param stats  Optional per-group skip accounting (may be null).
     */
    explicit Skipper(intervals::StreamCursor& cursor,
                     FastForwardStats* stats = nullptr)
        : cur_(cursor), stats_(stats)
    {}

    /**
     * Disable the batched primitive-run skipping (the enhanced
     * goOverPriAttrs/goOverPriElems of Algorithm 5); primitives are
     * then skipped one comma interval at a time.  Ablation knob.
     */
    void setBatchPrimitives(bool on) { batch_primitives_ = on; }

    /**
     * Attach a structural semi-index (warm path, DESIGN.md §14): the
     * container-end and primitive-run scans then resolve their targets
     * from the index's per-level bitmaps and teleport the cursor there
     * (StreamCursor::warpTo) instead of scanning.  @p depth must point
     * at the driver's live container-depth counter (number of unclosed
     * openers the driver has consumed); the skipper derives the bitmap
     * level from it at each call.  Depths beyond @p idx->levels() fall
     * back to streaming silently; a disagreement between index and
     * document (stale or foreign index — the caller is responsible for
     * the identity check) raises ParseError(ErrorCode::IndexMismatch)
     * rather than ever producing wrong output.
     *
     * @pre idx->usable(), and *depth reflects the cursor's position
     *      whenever a skipper method runs.  Pass nullptr to detach.
     */
    void
    bindIndex(const index::StructuralIndex* idx, const int* depth)
    {
        index_ = idx;
        depth_ptr_ = depth;
    }

    /// @name G2/G3 value skipping
    /// @{

    /**
     * Skip one whole value of any type, dispatching on its first
     * non-whitespace character.  Containers end just past their closer;
     * primitives end at (not past) the terminating ',', '}' or ']'.
     */
    void overValue(Group g);

    /** goOverObj(): skip a whole object. @pre next non-ws char is '{'. */
    void overObj(Group g);

    /** goOverAry(): skip a whole array. @pre next non-ws char is '['. */
    void overAry(Group g);

    /**
     * goOverPriAttr()/goOverPriElem(): skip one primitive (number,
     * string, literal); position ends at the terminating ',' / '}' /
     * ']' or at end of input for a bare root primitive.
     */
    void overPrimitive(Group g);

    /// @}
    /// @name G4/G5 container-end skipping
    /// @{

    /**
     * goToObjEnd(): from a position inside an object (between
     * attributes or after a value), fast-forward just past its '}'.
     */
    void toObjEnd(Group g);

    /** goToAryEnd(): array counterpart of toObjEnd(). */
    void toAryEnd(Group g);

    /// @}
    /// @name G1 attribute scan
    /// @{

    /**
     * goToObjAttr()/goToAryAttr(): advance to the next attribute whose
     * value type passes @p filter, skipping non-matching attributes
     * wholesale (their names are never extracted).  With
     * TypeFilter::Any every attribute stops the scan.
     *
     * Entry position: the attribute-list position (just after '{', or
     * just after a consumed value).  A separating ',' is consumed here.
     *
     * On success the position is at the first character of the
     * attribute's value and the returned span is the attribute name.
     */
    AttrResult toAttr(TypeFilter filter, Group g);

    /// @}
    /// @name Element scan (G1/G5)
    /// @{

    /** Elements that stop the element scan: bit 0 '{', bit 1 '['. */
    enum class ElemKind : uint8_t {
        None = 0,   ///< none: goOverElems(K), the G5 count
        Object = 1, ///< goToObjElem()
        Array = 2,  ///< goToAryElem()
    };

    /**
     * goToObjElem()/goToAryElem()/goOverElems(K) as one scan: skip
     * elements until one of kind @p stop_at starts or @p idx reaches
     * @p limit; @p idx is advanced by the number of elements skipped.
     * Containers of other kinds are skipped whole.  Primitive runs are
     * batch-skipped (Algorithm 5) unless batching is off (then one
     * element at a time).
     *
     * Entry/exit position: element start.  Returns End when the array
     * closed first (position past ']').
     */
    ElemStop toElem(ElemKind stop_at, size_t& idx, size_t limit, Group g);

    /// @}

    /**
     * The terminal `..name` search (DESIGN.md §13): from inside a
     * container with @p depth unpaired openers, advance to the next
     * candidate key (intervals::Scans::key_or_close; position on its
     * opening quote, @p depth kept for the resume) or just past the
     * container's closer.  The span is charged to @p g.
     * @return true at a candidate, false past the closer.
     * @throws ParseError (UnterminatedObject / UnterminatedArray) when
     *         the input ends first.
     */
    bool toKeyOrClose(bool object, uint64_t& depth, char k0, char k1,
                      Group g);

    /**
     * Bit-parallel scan for the end of the string literal opening at
     * @p open_pos. @return index one past the closing quote.
     * @throws ParseError (UnterminatedString, positioned at @p open_pos)
     *         when the input ends before an unescaped closing quote.
     */
    size_t stringEnd(size_t open_pos);

    /** Consume expected punctuation after whitespace. */
    void consume(char expected);

    /**
     * Automaton state tag recorded with every fast-forward trace entry
     * (query step for the single-query driver, trie node id for the
     * multi-query driver).  Compiled to nothing when telemetry is off.
     */
    void
    setTraceState(uint16_t state)
    {
        if constexpr (telemetry::kEnabled)
            trace_state_ = state;
        else
            (void)state;
    }

  private:
    /**
     * Core of the counting-based pairing strategy: advance past the
     * closer that brings @p depth unpaired openers to zero.  The scan
     * never reads past the input: every block it touches lies below
     * size(), and input that ends before the container balances throws
     * ParseError (UnterminatedObject / UnterminatedArray) positioned at
     * @p account_from.  Depth is tracked in 64 bits — an adversarial
     * input made of openers can push the unpaired count to size()
     * without overflow.
     *
     * @param object       true = braces, false = brackets.
     * @param account_from start of the span charged to @p g (callers
     *                     that consumed the opener include it here).
     * @param close_level  index level of the closer being sought (the
     *                     level convention of index/structural_scan.h):
     *                     indexedLevel() when closing the container the
     *                     driver is inside (toObjEnd/toAryEnd),
     *                     indexedLevel()+1 when the caller consumed a
     *                     child opener first (overObj/overAry).  Only
     *                     consulted when an index is bound and depth==1;
     *                     negative or out-of-range levels stream.
     */
    void closeContainer(bool object, uint64_t depth, Group g,
                        size_t account_from, int64_t close_level);

    /**
     * Skip consecutive primitives separated by commas, stopping at the
     * first '{' or '[' (position lands on it), at the level's closer
     * (position lands on it), or after @p max_seps separators have been
     * consumed (position lands just past the last one).
     *
     * @param closer_is_brace true in object context ('}'), false in
     *                        array context (']').
     * @param seps            incremented per separator consumed.
     */
    intervals::RunStop scanPrimitives(bool closer_is_brace,
                                      size_t max_seps, size_t& seps,
                                      Group g);

    /**
     * Recover the attribute name that precedes the container value at
     * @p value_pos (used when a batched primitive scan stops at a
     * container-typed value whose key was skimmed past).  Parses
     * forward from the scan hold so every byte read is resident in
     * chunked mode.
     */
    AttrResult keyBefore(size_t value_pos) const;

    /**
     * Bitmap level of the container the driver is currently inside
     * (its separators, its closer, and its child openers all live
     * there — index/structural_scan.h).  -1 when no driver depth is
     * bound or at root scope, which indexable() rejects.
     */
    int64_t
    indexedLevel() const
    {
        return depth_ptr_ != nullptr
                   ? static_cast<int64_t>(*depth_ptr_) - 1
                   : -1;
    }

    /** True when @p level can be answered from the bound index. */
    bool
    indexable(int64_t level) const
    {
        return index_ != nullptr && level >= 0 &&
               static_cast<size_t>(level) < index_->levels();
    }

    void
    account(Group g, size_t from, size_t to)
    {
        if (to <= from)
            return;
        if (stats_)
            stats_->add(g, to - from);
        // Telemetry records independently of stats_: phase-0 skippers
        // in parallel runs pass a null stats pointer but their skips
        // still belong in the trace.
        telemetry::recordSkip(static_cast<uint8_t>(g), from, to,
                              trace_state_);
    }

    intervals::StreamCursor& cur_;
    FastForwardStats* stats_;
    const index::StructuralIndex* index_ = nullptr;
    const int* depth_ptr_ = nullptr;
    bool batch_primitives_ = true;
    uint16_t trace_state_ = 0;
};

} // namespace jsonski::ski

#endif // JSONSKI_SKI_SKIPPER_H
