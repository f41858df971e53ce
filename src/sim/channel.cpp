#include "sim/channel.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace cake {
namespace sim {

const char* packet_kind_name(PacketKind kind)
{
    switch (kind) {
        case PacketKind::kSurfaceA: return "surface-A";
        case PacketKind::kSurfaceB: return "surface-B";
        case PacketKind::kResultC: return "result-C";
        case PacketKind::kPartialC: return "partial-C";
        case PacketKind::kBroadcastB: return "broadcast-B";
    }
    return "unknown";
}

Channel::Channel(EventQueue& queue, double bytes_per_second, std::string name,
                 double rmw_bytes_per_second)
    : queue_(queue), bytes_per_second_(bytes_per_second),
      rmw_bytes_per_second_(rmw_bytes_per_second > 0.0 ? rmw_bytes_per_second
                                                       : bytes_per_second),
      name_(std::move(name))
{
    CAKE_CHECK_MSG(bytes_per_second > 0, "channel " << name_
                                                    << " needs bandwidth > 0");
}

Channel::Interval Channel::transfer(double ready, const Packet& packet)
{
    const double start = std::max({ready, busy_until_, queue_.now()});
    const double rate = packet.kind == PacketKind::kPartialC
        ? rmw_bytes_per_second_
        : bytes_per_second_;
    const double duration = static_cast<double>(packet.bytes) / rate;
    const double end = start + duration;
    busy_until_ = end;
    busy_seconds_ += duration;
    counters_.record(packet);
    return {start, end};
}

}  // namespace sim
}  // namespace cake
