/**
 * @file
 * FrameWriter/FrameReader implementation (moved verbatim from
 * tfhe/serialize.cpp so net/ can link the framing layer without
 * pulling in TFHE). Byte layout and error messages are unchanged.
 */

#include "common/frame.h"

#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace strix {

// --- FrameWriter -----------------------------------------------------

FrameWriter::FrameWriter(std::ostream &os, uint32_t tag,
                         uint32_t version)
    : os_(os)
{
    u32(tag);
    u32(version);
}

void
FrameWriter::bytes(const void *data, size_t len)
{
    if (in_section_) {
        if (len > unwritten_)
            throw std::logic_error("FrameWriter: section overrun");
        unwritten_ -= len;
    }
    os_.write(static_cast<const char *>(data),
              static_cast<std::streamsize>(len));
}

void
FrameWriter::u32(uint32_t v)
{
    // Explicit little-endian byte order for portability.
    unsigned char b[4] = {static_cast<unsigned char>(v),
                          static_cast<unsigned char>(v >> 8),
                          static_cast<unsigned char>(v >> 16),
                          static_cast<unsigned char>(v >> 24)};
    bytes(b, 4);
}

void
FrameWriter::u64(uint64_t v)
{
    u32(static_cast<uint32_t>(v & 0xFFFFFFFFu));
    u32(static_cast<uint32_t>(v >> 32));
}

void
FrameWriter::f64(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
FrameWriter::beginSection(uint32_t id, uint64_t len)
{
    if (in_section_)
        throw std::logic_error("FrameWriter: nested section");
    u32(id);
    u64(len);
    in_section_ = true;
    unwritten_ = len;
}

void
FrameWriter::endSection()
{
    if (!in_section_)
        throw std::logic_error("FrameWriter: no open section");
    in_section_ = false;
    if (unwritten_ != 0)
        throw std::logic_error("FrameWriter: section short");
}

// --- FrameReader -----------------------------------------------------

FrameReader::FrameReader(std::istream &is, uint32_t expect,
                         uint32_t version, const char *what)
    : is_(is)
{
    const uint32_t tag = u32();
    const uint32_t found_version = u32();
    if (tag != expect)
        throw std::runtime_error(std::string("serialize: expected ") +
                                 what + " frame");
    if (found_version != version)
        throw std::runtime_error("serialize: unsupported version");
}

void
FrameReader::bytes(void *out, size_t len)
{
    if (in_section_) {
        if (remaining_ < len)
            throw std::runtime_error(
                "serialize: read past section end");
        remaining_ -= len;
    }
    is_.read(static_cast<char *>(out),
             static_cast<std::streamsize>(len));
    if (!is_)
        throw std::runtime_error("serialize: truncated stream");
}

uint32_t
FrameReader::u32()
{
    unsigned char b[4];
    bytes(b, 4);
    return uint32_t(b[0]) | uint32_t(b[1]) << 8 | uint32_t(b[2]) << 16 |
           uint32_t(b[3]) << 24;
}

uint64_t
FrameReader::u64()
{
    uint64_t lo = u32();
    uint64_t hi = u32();
    return lo | (hi << 32);
}

double
FrameReader::f64()
{
    uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

void
FrameReader::enterSection(uint32_t id, uint64_t max_len)
{
    if (in_section_)
        throw std::logic_error("FrameReader: nested section");
    uint32_t got_id = u32();
    uint64_t len = u64();
    if (got_id != id)
        throw std::runtime_error("serialize: unexpected section");
    if (len > max_len)
        throw std::runtime_error(
            "serialize: implausible section length");
    in_section_ = true;
    remaining_ = len;
}

void
FrameReader::leaveSection()
{
    if (!in_section_)
        throw std::logic_error("FrameReader: no open section");
    if (remaining_ != 0)
        throw std::runtime_error("serialize: section length mismatch");
    in_section_ = false;
}

} // namespace strix
