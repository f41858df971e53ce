// Bandwidth-limited channels connecting simulated modules.
#pragma once

#include <string>

#include "sim/event.hpp"
#include "sim/packet.hpp"

namespace cake {
namespace sim {

/// A serial channel with fixed bandwidth: packets occupy it back to back
/// (FIFO). Models both the external DRAM link and the internal
/// local-memory <-> core-grid link.
class Channel {
public:
    /// `rmw_bytes_per_second` is the service rate for kPartialC packets
    /// (read-modify-write round trips); 0 means same as the default rate.
    Channel(EventQueue& queue, double bytes_per_second, std::string name,
            double rmw_bytes_per_second = 0.0);

    /// Occupancy interval of one transfer on the channel.
    struct Interval {
        double start = 0;
        double end = 0;
    };

    /// Enqueue `packet` for transfer, starting no earlier than `ready`.
    /// Returns the transfer's channel-occupancy interval (known
    /// immediately under FIFO service).
    Interval transfer(double ready, const Packet& packet);

    [[nodiscard]] double busy_seconds() const { return busy_seconds_; }
    [[nodiscard]] double busy_until() const { return busy_until_; }
    [[nodiscard]] const PacketCounters& counters() const { return counters_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] double bytes_per_second() const { return bytes_per_second_; }

private:
    EventQueue& queue_;
    double bytes_per_second_;
    double rmw_bytes_per_second_;
    std::string name_;
    double busy_until_ = 0.0;
    double busy_seconds_ = 0.0;
    PacketCounters counters_;
};

}  // namespace sim
}  // namespace cake
