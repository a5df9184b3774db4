/**
 * @file
 * MSG1 framing implementation.
 */

#include "net/wire.h"

#include <cstring>
#include <stdexcept>

namespace strix {

std::vector<uint8_t>
encodeMessage(const WireMessage &msg)
{
    // The header and payload go straight into one buffer of the
    // frame's size: a multi-megabyte EVK2 frame is copied once.
    std::vector<uint8_t> frame;
    frame.reserve(kMsg1HeaderBytes + msg.payload.size());
    auto put = [&frame](uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i)
            frame.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    put(kMsg1Magic, 4);
    put(kMsg1Version, 4);
    put(static_cast<uint32_t>(msg.type), 4);
    put(msg.tenant, 8);
    put(msg.request_id, 8);
    put(msg.deadline_us, 8);
    put(msg.payload.size(), 8);
    frame.insert(frame.end(), msg.payload.begin(), msg.payload.end());
    return frame;
}

std::vector<uint8_t>
encodeError(uint64_t tenant, uint64_t request_id, WireError code,
            const std::string &text)
{
    WireMessage msg;
    msg.type = MsgType::Error;
    msg.tenant = tenant;
    msg.request_id = request_id;
    msg.payload.reserve(8 + text.size());
    auto put32 = [&msg](uint32_t v) {
        msg.payload.push_back(static_cast<uint8_t>(v));
        msg.payload.push_back(static_cast<uint8_t>(v >> 8));
        msg.payload.push_back(static_cast<uint8_t>(v >> 16));
        msg.payload.push_back(static_cast<uint8_t>(v >> 24));
    };
    put32(static_cast<uint32_t>(code));
    put32(static_cast<uint32_t>(text.size()));
    msg.payload.insert(msg.payload.end(), text.begin(), text.end());
    return encodeMessage(msg);
}

ErrorInfo
decodeErrorPayload(const std::vector<uint8_t> &payload)
{
    if (payload.size() < 8)
        throw std::runtime_error("net: truncated error payload");
    auto get32 = [&payload](size_t at) {
        return uint32_t(payload[at]) | uint32_t(payload[at + 1]) << 8 |
               uint32_t(payload[at + 2]) << 16 |
               uint32_t(payload[at + 3]) << 24;
    };
    ErrorInfo info;
    info.code = static_cast<WireError>(get32(0));
    const uint32_t len = get32(4);
    if (payload.size() - 8 < len)
        throw std::runtime_error("net: error text length lies");
    info.text.assign(payload.begin() + 8, payload.begin() + 8 + len);
    return info;
}

const char *
wireErrorName(WireError code)
{
    switch (code) {
    case WireError::Protocol:
        return "Protocol";
    case WireError::BadPayload:
        return "BadPayload";
    case WireError::UnknownType:
        return "UnknownType";
    case WireError::UnknownTenant:
        return "UnknownTenant";
    case WireError::Busy:
        return "Busy";
    case WireError::DeadlineExceeded:
        return "DeadlineExceeded";
    case WireError::Infeasible:
        return "Infeasible";
    case WireError::ShuttingDown:
        return "ShuttingDown";
    case WireError::PayloadTooLarge:
        return "PayloadTooLarge";
    case WireError::Internal:
        return "Internal";
    }
    return "Unknown";
}

void
FrameDecoder::feed(const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    // Compact once the consumed prefix dominates, so a long-lived
    // connection does not grow its buffer without bound.
    if (off_ > 0 && off_ >= buf_.size() / 2) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<ptrdiff_t>(off_));
        off_ = 0;
    }
    buf_.insert(buf_.end(), p, p + len);
}

uint32_t
FrameDecoder::u32At(size_t at) const
{
    const size_t i = off_ + at;
    return uint32_t(buf_[i]) | uint32_t(buf_[i + 1]) << 8 |
           uint32_t(buf_[i + 2]) << 16 | uint32_t(buf_[i + 3]) << 24;
}

uint64_t
FrameDecoder::u64At(size_t at) const
{
    return uint64_t(u32At(at)) | uint64_t(u32At(at + 4)) << 32;
}

bool
FrameDecoder::next(WireMessage &out)
{
    if (poisoned_)
        throw std::runtime_error("net: decoder poisoned by a framing "
                                 "error");
    if (buffered() < kMsg1HeaderBytes)
        return false;
    if (u32At(0) != kMsg1Magic) {
        poisoned_ = true;
        throw std::runtime_error("net: bad MSG1 magic");
    }
    if (u32At(4) != kMsg1Version) {
        poisoned_ = true;
        throw std::runtime_error("net: unsupported MSG1 version");
    }
    const uint64_t payload_len = u64At(36);
    if (payload_len > limits_.max_payload_bytes) {
        poisoned_ = true;
        throw std::runtime_error("net: implausible payload length");
    }
    if (buffered() - kMsg1HeaderBytes < payload_len)
        return false; // wait for the rest of the payload
    out.type = static_cast<MsgType>(u32At(8));
    out.tenant = u64At(12);
    out.request_id = u64At(20);
    out.deadline_us = u64At(28);
    const size_t body = off_ + kMsg1HeaderBytes;
    out.payload.assign(buf_.begin() + static_cast<ptrdiff_t>(body),
                       buf_.begin() +
                           static_cast<ptrdiff_t>(body + payload_len));
    off_ += kMsg1HeaderBytes + static_cast<size_t>(payload_len);
    return true;
}

} // namespace strix
