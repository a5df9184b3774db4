/**
 * @file
 * Versioned little-endian binary framing.
 *
 * FrameWriter/FrameReader are the byte layer every Strix wire format
 * builds on: a frame is a 4-byte type tag + u32 version header
 * followed by little-endian primitives, optionally grouped into
 * length-prefixed sections ([id u32][length u64][payload]) whose
 * declared lengths the reader validates. The TFHE serialization
 * formats (tfhe/serialize.h) and the MSG1 network protocol
 * (net/wire.h) are both built on this layer; it lives in common/ so
 * the net/ layer can frame messages without depending on TFHE types.
 *
 * Reader error messages keep the historical "serialize:" prefix --
 * they are part of the observable contract of the TFHE readers.
 */

#ifndef STRIX_COMMON_FRAME_H
#define STRIX_COMMON_FRAME_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <type_traits>

namespace strix {

/**
 * Incremental frame writer: header (tag + version) up front, then
 * little-endian primitives. Version-2 frames group their payload into
 * length-prefixed sections ([id u32][length u64][payload]): the writer
 * declares each section's length up front and checks that exactly that
 * many bytes follow, so the prefix is exact and readers get a
 * checkable frame skeleton. Outside a section nothing is counted --
 * the v1 frames use only that raw mode, which keeps their byte layout
 * identical to the historical ad-hoc writers.
 */
class FrameWriter
{
  public:
    /** Write the frame header for @p tag at @p version. */
    FrameWriter(std::ostream &os, uint32_t tag, uint32_t version);

    /** Same, taking the tag as a u32-backed enum (e.g. SerialTag). */
    template <typename Tag,
              typename = std::enable_if_t<std::is_enum<Tag>::value>>
    FrameWriter(std::ostream &os, Tag tag, uint32_t version)
        : FrameWriter(os, static_cast<uint32_t>(tag), version)
    {
    }

    void u32(uint32_t v);
    void u64(uint64_t v);
    /** Double by bit pattern (exact round-trip). */
    void f64(double v);
    void bytes(const void *data, size_t len);

    /**
     * Open section @p id of @p len bytes: the id and length go out
     * now and the payload writes straight through. Writing past
     * @p len throws std::logic_error.
     */
    void beginSection(uint32_t id, uint64_t len);
    /** Close the section; throws std::logic_error if it is short. */
    void endSection();

  private:
    std::ostream &os_;
    bool in_section_ = false;
    uint64_t unwritten_ = 0; //!< bytes the open section still expects
};

/**
 * Validating frame reader, the read-side twin of FrameWriter. The
 * constructor reads tag + version and pins both. Inside a section
 * every primitive is bounds-checked against the declared section
 * length and leaveSection() demands exact consumption, so a tampered
 * length field or a truncated/oversized payload throws
 * std::runtime_error instead of desynchronizing the stream. All reads
 * throw on truncation; nothing here ever panics on wire input.
 */
class FrameReader
{
  public:
    /** Read a header, throwing unless it is @p expect at @p version. */
    FrameReader(std::istream &is, uint32_t expect, uint32_t version,
                const char *what);

    /** Same, taking the expected tag as a u32-backed enum. */
    template <typename Tag,
              typename = std::enable_if_t<std::is_enum<Tag>::value>>
    FrameReader(std::istream &is, Tag expect, uint32_t version,
                const char *what)
        : FrameReader(is, static_cast<uint32_t>(expect), version, what)
    {
    }

    uint32_t u32();
    uint64_t u64();
    double f64();
    void bytes(void *out, size_t len);

    /**
     * Enter the next section, which must carry @p id and declare a
     * length of at most @p max_len bytes (the caller's plausibility
     * bound -- a hostile length field must never drive allocation).
     */
    void enterSection(uint32_t id, uint64_t max_len);

    /** Bytes of the current section not yet consumed. */
    uint64_t sectionRemaining() const { return remaining_; }

    /** Close the section; throws unless it was consumed exactly. */
    void leaveSection();

  private:
    std::istream &is_;
    bool in_section_ = false;
    uint64_t remaining_ = 0;
};

} // namespace strix

#endif // STRIX_COMMON_FRAME_H
