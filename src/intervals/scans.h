/**
 * @file
 * One kernel's compiled scan loops: the coarse entry points of the
 * streaming hot path.
 *
 * Every loop that walks the input block by block — the cursor's
 * string-layer classification and whitespace skip, and the skipper's
 * container close (Algorithm 3 pairing), primitive-run scan
 * (Algorithm 4/5 comma intervals), primitive end, string end and the
 * descendant key search — is
 * written once as a template over a kernel policy (kernels/policy.h,
 * intervals/scan_loops.h) and compiled once per kernel, in a
 * translation unit carrying that kernel's pinned flags.  The policy's
 * vector compares, prefix-XOR, select and popcount therefore inline
 * into the loop.  A StreamCursor takes its kernel's table once, at
 * construction, from kernels::active(): dispatch costs one indirect
 * call per skip primitive and none per 64-byte block (DESIGN.md §11).
 */
#ifndef JSONSKI_INTERVALS_SCANS_H
#define JSONSKI_INTERVALS_SCANS_H

#include <cstddef>
#include <cstdint>

namespace jsonski::kernels {
struct Kernel;
}

namespace jsonski::intervals {

class StreamCursor;

/** Where a primitive-run scan stopped. */
enum class RunStop {
    OpenBrace,   ///< at a '{' (position on it)
    OpenBracket, ///< at a '[' (position on it)
    Closer,      ///< at the level's closer (position on it)
    SepBudget,   ///< budget separators consumed (position just past the last)
    End,         ///< input ended first (position at size())
};

/** Where a key-or-close scan stopped. */
enum class KeyStop {
    Closer,    ///< the container closed (position just past its closer)
    Candidate, ///< at a candidate key's opening quote (position on it)
    End,       ///< input ended first (position at size())
};

/** Sentinel of Scans::string_end: the input ends inside the string. */
inline constexpr size_t kUnterminated = static_cast<size_t>(-1);

/**
 * The scan loops of one kernel.  Every entry starts at the cursor's
 * position, which must lie outside any string literal, and leaves the
 * position where its comment says.  None reads a byte at or past
 * size() or throws on malformed input; callers turn the failure
 * returns into ParseErrors.
 */
struct Scans
{
    /** kernels::Kernel::name of the kernel these loops were built for. */
    const char* kernel;

    /** Classify the string layer through block @p idx (the cursor's
     *  out-of-line stringsAt path). */
    void (*classify_through)(StreamCursor& cur, size_t idx);

    /** Whitespace skip from the position; returns the byte found (the
     *  position lands on it) or '\0' at end of input. */
    char (*skip_whitespace)(StreamCursor& cur);

    /** Advance just past the closer that brings @p depth unpaired
     *  openers to zero.  Returns false (position at size()) when the
     *  input ends first. */
    bool (*close_container)(StreamCursor& cur, char open_ch, char close_ch,
                            uint64_t depth);

    /** Skip comma-separated primitives until a '{', '[', @p closer, or
     *  @p budget >= 1 separators; adds the separators consumed to
     *  @p seps and moves the scan hold behind the last of them. */
    RunStop (*primitive_run)(StreamCursor& cur, char closer, size_t budget,
                             size_t& seps);

    /** Advance to the first ',', '}' or ']' at or after the position
     *  (or to size() when none follows). */
    void (*primitive_end)(StreamCursor& cur);

    /** One past the closing quote of the string opening at
     *  @p open_pos, or kUnterminated. */
    size_t (*string_end)(StreamCursor& cur, size_t open_pos);

    /**
     * close_container that also stops at the first candidate key: an
     * opening quote followed by the bytes @p k0 @p k1 (@p k1 == '\0'
     * checks @p k0 only).  A candidate whose look-ahead crosses into
     * the next block is kept, so the filter is exact per block.
     * @p depth keeps the unpaired openers left before the stop.
     */
    KeyStop (*key_or_close)(StreamCursor& cur, char open_ch, char close_ch,
                            uint64_t& depth, char k0, char k1);
};

/** The scan loops compiled for kernel @p k. */
const Scans& scansFor(const kernels::Kernel& k);

} // namespace jsonski::intervals

#endif // JSONSKI_INTERVALS_SCANS_H
