/**
 * @file
 * Runtime SIMD kernel dispatch.
 *
 * The bit-parallel substrate (64-byte block classification, prefix-XOR,
 * PDEP-select, ASCII screening for UTF-8 validation) and the streaming
 * scan loops built on it are the only parts of the codebase whose
 * machine code depends on the instruction set.  Instead of baking one
 * ISA in at build time with -march=native, every variant is defined
 * once as a policy (kernels/policy.h), compiled into its own
 * translation units with per-file target options, and selected at
 * runtime:
 *
 *   - "avx2"     — 32-byte vector compares, CLMUL prefix-XOR, PDEP
 *                  select (Haswell+; what the paper's numbers assume)
 *   - "westmere" — 16-byte SSE compares + CLMUL prefix-XOR (alias
 *                  "sse2" accepted for the lookup)
 *   - "scalar"   — portable SWAR/loop code, runnable anywhere
 *
 * Selection happens once, at first use: the best kernel whose
 * supported() cpuid probe passes wins, unless JSONSKI_KERNEL=<name>
 * overrides it (strict token parse; an unknown, malformed, or
 * unsupported-on-this-host name throws jsonski::ConfigError).  After
 * resolution the choice never changes for the life of the process —
 * carries threaded between blocks assume one kernel produced them all
 * (tests may swap kernels between runs via Override, below).
 *
 * Contract: every kernel must produce bit-identical bitmaps, verdicts,
 * and select/prefix results for every input (tests/
 * kernel_equivalence_test.cpp enforces this exhaustively).
 */
#ifndef JSONSKI_KERNELS_KERNEL_H
#define JSONSKI_KERNELS_KERNEL_H

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

namespace jsonski::kernels {

/** Raw per-character equality bitmaps over one 64-byte block (bit i =
 *  byte i, "mirrored" convention of util/bits.h).  No string masking —
 *  that is ISA-independent follow-up work done by the classifier. */
struct RawBits64
{
    uint64_t backslash, quote;
    uint64_t open_brace, close_brace, open_bracket, close_bracket;
    uint64_t colon, comma, whitespace;
};

/** The string-layer subset of RawBits64 (the sequential hot path only
 *  needs these two per block). */
struct StringRaw
{
    uint64_t backslash, quote;
};

/**
 * One compiled kernel: a name, a cpuid probe, and the ISA-sensitive
 * primitives as plain function pointers (wrappers of the kernel's
 * policy, kernels/policy.h) for callers that dispatch per call.  All
 * block functions read exactly 64 bytes.  The streaming hot loops do
 * not go through this table: they are compiled per kernel
 * (intervals/scans.h).
 */
struct Kernel
{
    const char* name;    ///< "avx2", "westmere", "scalar"
    int priority;        ///< higher = preferred when supported
    bool (*supported)(); ///< cpuid probe; scalar always returns true

    /** All nine metacharacter equality bitmaps for one block. */
    RawBits64 (*raw_bits)(const char* data);

    /** Backslash + quote bitmaps only (string-layer fast path). */
    StringRaw (*string_raw)(const char* data);

    /** Equality bitmap of @p c over one block. */
    uint64_t (*eq_bits)(const char* data, char c);

    /** Bitmap of bytes <= 0x20 over one block. */
    uint64_t (*whitespace_bits)(const char* data);

    /** True when all 64 bytes are ASCII (< 0x80). */
    bool (*ascii_block)(const char* data);

    /** Prefix XOR of a word (CLMUL where available). */
    uint64_t (*prefix_xor)(uint64_t x);

    /** Position of the k-th (1-based) set bit (PDEP where available).
     *  @pre 1 <= k <= popcount(x) */
    int (*select_bit)(uint64_t x, int k);
};

/** Every kernel compiled into this binary, best-first. */
const std::vector<const Kernel*>& all();

/** The subset of all() whose supported() probe passes on this host.
 *  Never empty: scalar is always runnable. */
std::vector<const Kernel*> runnable();

/** Kernel by name ("sse2" is accepted as an alias for "westmere");
 *  nullptr when no such kernel is compiled in. */
const Kernel* find(std::string_view name);

/**
 * Strict named selection, the JSONSKI_KERNEL code path: the name must
 * be a well-formed token (util/parse.h parseIdent), must name a
 * compiled kernel, and that kernel must be runnable on this host.
 *
 * @throws jsonski::ConfigError otherwise (the message lists the
 *         compiled kernels).
 */
const Kernel& select(std::string_view name);

namespace detail {
extern std::atomic<const Kernel*> g_active;
/** Slow path: resolve JSONSKI_KERNEL / cpuid once and publish. */
const Kernel& resolveActive();
} // namespace detail

/**
 * The process-wide active kernel, resolved on first call (reads
 * JSONSKI_KERNEL, else picks the best supported kernel).
 *
 * @throws jsonski::ConfigError if JSONSKI_KERNEL is set to a
 *         malformed, unknown, or unsupported name.
 */
inline const Kernel&
active()
{
    const Kernel* k = detail::g_active.load(std::memory_order_acquire);
    return k != nullptr ? *k : detail::resolveActive();
}

/** Name of the active kernel (resolving it if needed). */
inline std::string_view
activeName()
{
    return active().name;
}

/**
 * Test-only RAII kernel swap: forces @p k active for the scope, then
 * restores the previous resolution state.  Not thread-safe — only for
 * single-threaded differential tests and per-kernel benchmarks that
 * replay the same input under every runnable kernel.
 */
class Override
{
  public:
    explicit Override(const Kernel& k)
        : prev_(detail::g_active.exchange(&k, std::memory_order_acq_rel))
    {}

    Override(const Override&) = delete;
    Override& operator=(const Override&) = delete;

    ~Override()
    {
        detail::g_active.store(prev_, std::memory_order_release);
    }

  private:
    const Kernel* prev_;
};

} // namespace jsonski::kernels

#endif // JSONSKI_KERNELS_KERNEL_H
