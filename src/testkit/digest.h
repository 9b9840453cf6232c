/**
 * @file
 * 64-bit FNV-1a over words, the hash behind the testkit's result
 * digests (fleetResultDigest, schedOutcomeDigest). Integers mix as
 * their 64-bit two's-complement pattern and doubles by bit pattern,
 * so two digests match only when the hashed values are ==-identical
 * (and -0.0 differs from 0.0).
 */

#ifndef PAICHAR_TESTKIT_DIGEST_H
#define PAICHAR_TESTKIT_DIGEST_H

#include <bit>
#include <cstdint>

namespace paichar::testkit {

/** Running FNV-1a hash; mix words in, read value(). */
class Fnv1a
{
  public:
    void
    mix(uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            h_ ^= (word >> (8 * byte)) & 0xff;
            h_ *= 0x100000001b3ULL; // FNV-1a prime
        }
    }

    void mixi(int64_t v) { mix(static_cast<uint64_t>(v)); }
    void mixd(double v) { mix(std::bit_cast<uint64_t>(v)); }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL; // FNV-1a offset basis
};

} // namespace paichar::testkit

#endif // PAICHAR_TESTKIT_DIGEST_H
