/**
 * @file
 * ISA policies: the single definition of each bit-parallel primitive.
 *
 * A policy is a struct holding the kernel's name `kName` and static
 * inline functions over one 64-byte block — `Block load(const char*)`,
 * the equality bitmap `eq(block, c)`, the `<= 0x20` bitmap
 * `whitespace(block)`, the ASCII screen `ascii(block)`,
 * `prefixXor(word)` and `select(word, k)` — with one struct per kernel
 * (kernels/avx2.h, westmere.h, scalar.h).  Hot
 * loops are templates over a policy and are compiled once per kernel
 * (intervals/scan_loops.h), so the primitives inline into them; the
 * Kernel vtable below merely wraps the same functions for the callers
 * that dispatch per call.
 *
 * Flag discipline: a policy header may only be included by translation
 * units that carry its kernel's pinned flags (src/CMakeLists.txt), and
 * each header refuses to compile otherwise.  Code shared between the
 * differently flagged TUs must either depend on the policy (a template
 * instantiated per kernel) or have internal linkage (`static inline`,
 * as util/bits.h does): an ordinary inline function would be emitted
 * once per TU and the linker would keep one arbitrary copy — possibly
 * one compiled for AVX2 — for every caller in the binary.
 */
#ifndef JSONSKI_KERNELS_POLICY_H
#define JSONSKI_KERNELS_POLICY_H

#include "kernels/kernel.h"

namespace jsonski::kernels {

/** The Kernel vtable entries of policy @p P. */
template <class P>
struct PolicyEntries
{
    static RawBits64
    rawBits(const char* data)
    {
        typename P::Block b = P::load(data);
        RawBits64 r;
        r.backslash = P::eq(b, '\\');
        r.quote = P::eq(b, '"');
        r.open_brace = P::eq(b, '{');
        r.close_brace = P::eq(b, '}');
        r.open_bracket = P::eq(b, '[');
        r.close_bracket = P::eq(b, ']');
        r.colon = P::eq(b, ':');
        r.comma = P::eq(b, ',');
        r.whitespace = P::eq(b, ' ') | P::eq(b, '\t') | P::eq(b, '\n') |
                       P::eq(b, '\r');
        return r;
    }

    static StringRaw
    stringRaw(const char* data)
    {
        typename P::Block b = P::load(data);
        return {P::eq(b, '\\'), P::eq(b, '"')};
    }

    static uint64_t
    eqBits(const char* data, char c)
    {
        return P::eq(P::load(data), c);
    }

    static uint64_t
    whitespaceBits(const char* data)
    {
        return P::whitespace(P::load(data));
    }

    static bool
    asciiBlock(const char* data)
    {
        return P::ascii(P::load(data));
    }
};

/** Kernel record whose primitives are policy @p P's. */
template <class P>
constexpr Kernel
makeKernel(int priority, bool (*supported)())
{
    using E = PolicyEntries<P>;
    return {P::kName,      priority,          supported,
            E::rawBits,    E::stringRaw,      E::eqBits,
            E::whitespaceBits, E::asciiBlock, P::prefixXor,
            P::select};
}

} // namespace jsonski::kernels

#endif // JSONSKI_KERNELS_POLICY_H
