/**
 * @file
 * Deterministic structured mutator for the differential fuzz harness.
 *
 * Random byte noise almost never exercises the interesting failure
 * modes of a bit-parallel skipper: the hazards live where *structure*
 * is damaged (a brace flipped, a quote dropped, the input cut mid
 * container) and where that damage lands relative to a 64-byte block
 * boundary.  The mutator therefore applies a small set of structure-
 * aware edits, several of which deliberately target bytes at block
 * offsets 62..65 so that carry and tail-padding logic is hit every
 * run.  One edit repeats a whole object member right after itself, so
 * valid mutants carry duplicate names and every engine is held to the
 * first-occurrence binding of DESIGN.md §13.  Everything is driven by
 * the repo's seedable Rng, so a failing mutant is reproducible from
 * (seed, iteration) alone.
 */
#ifndef JSONSKI_TESTING_MUTATOR_H
#define JSONSKI_TESTING_MUTATOR_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace jsonski::testing {

/** One applied edit, for failure diagnostics. */
struct Mutation
{
    enum class Kind {
        Truncate,        ///< cut the document at a random byte
        FlipContainer,   ///< replace a byte with one of {}[]
        DropQuote,       ///< delete one '"' byte
        SpliceByte,      ///< insert/overwrite one structural-ish byte
        BlockBoundary,   ///< targeted edit at a block offset 62..65
        DuplicateMember, ///< repeat a whole `"key":value` member
    };

    Kind kind;
    size_t position; ///< byte offset the edit applied at
    char byte;       ///< inserted/overwriting byte ('\0' for deletions)
};

/** Human-readable one-liner ("flip-container @117 -> '}'"). */
std::string describe(const Mutation& m);

/**
 * Deterministic JSONPath grammar mutator, the query-side counterpart
 * of StructuredMutator: wellFormed() assembles a random step vector
 * (keys, indexes, slices, wildcards, descendants at any position, and
 * filter predicates over every operator/literal combination) and
 * prints it through PathQuery::toString(), so the text is parseable
 * by construction — occasionally with legal predicate whitespace
 * injected to exercise non-canonical spellings.  nearMiss() damages a
 * well-formed query with one edit (truncate, delete, duplicate, or
 * splice a grammar metacharacter); the parser must either accept the
 * result or throw PathError with an in-range position — never crash,
 * loop, or throw anything else.
 */
class QueryMutator
{
  public:
    explicit QueryMutator(uint64_t seed) : rng_(seed) {}

    /** A random query text guaranteed to parse. */
    std::string wellFormed();

    /**
     * A random query *set* of 2..5 texts for the batched-vs-sequential
     * leg: deliberately salted with exact duplicates (the batched
     * engine must collapse them) and overlapping-prefix extensions of
     * earlier entries (so the shared trie gets real multi-query
     * nodes).  Every entry parses.
     */
    std::vector<std::string> querySet();

    /** A damaged query text; usually (not always) rejected. */
    std::string nearMiss();

    /** The generator driving the choices. */
    Rng& rng() { return rng_; }

  private:
    Rng rng_;
};

/** See file comment. */
class StructuredMutator
{
  public:
    explicit StructuredMutator(uint64_t seed) : rng_(seed) {}

    /**
     * Produce one mutant of @p doc by applying 1..3 random edits.
     * @param applied When non-null, receives the edit list.
     */
    std::string mutate(std::string_view doc,
                       std::vector<Mutation>* applied = nullptr);

    /** The generator driving the mutation choices. */
    Rng& rng() { return rng_; }

  private:
    void applyOne(std::string& doc, std::vector<Mutation>& applied);

    Rng rng_;
};

} // namespace jsonski::testing

#endif // JSONSKI_TESTING_MUTATOR_H
