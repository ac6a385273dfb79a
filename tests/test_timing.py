"""The price list: `CycleStats.charge` turns counts into cycles.

A step on the critical path pays latency per DRAM access and per crypto
block; a step on the lane pays occupancy, starting no earlier than both the
lane's free time and the time it names.  Every model prices through this,
so these are checked directly, at the default costs and at the fault-only
preset's zero crypto costs.
"""

import pytest

from enclavesim.config import PRESETS
from enclavesim.timing import CycleStats, LatencyConfig

LATENCIES = [LatencyConfig(), LatencyConfig(**PRESETS["fault-only"]["latency"])]
IDS = ["default", "fault-only"]
# (dram, crypto, cycles) as the models state them
COUNTS = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (128, 64, 0), (3, 0, 4096),
          (0, 0, 30000)]


def _stats(lat, critical=1000, lane_free=0):
    stats = CycleStats(lat)
    stats.critical_cycles = critical
    stats.lane_free = lane_free
    return stats


def _state(stats):
    return (stats.critical_cycles, stats.lane_free, stats.lane_busy_cycles,
            stats.stall_cycles)


@pytest.mark.parametrize("lat", LATENCIES, ids=IDS)
@pytest.mark.parametrize("dram, crypto, cycles", COUNTS)
def test_critical_charge_adds_latency_and_leaves_the_lane(lat, dram, crypto, cycles):
    stats = _stats(lat, critical=1000, lane_free=5000)
    stats.charge(dram=dram, crypto=crypto, cycles=cycles)
    price = dram * lat.dram_access_cycles + crypto * lat.crypto_block_cycles + cycles
    assert _state(stats) == (1000 + price, 5000, 0, 0)


@pytest.mark.parametrize("lat", LATENCIES, ids=IDS)
@pytest.mark.parametrize("dram, crypto, cycles", COUNTS)
@pytest.mark.parametrize("lane_free, lane_at", [(0, 0), (5000, 200), (200, 5000)])
def test_lane_charge_adds_occupancy_from_the_later_start(
    lat, dram, crypto, cycles, lane_free, lane_at
):
    stats = _stats(lat, critical=1000, lane_free=lane_free)
    stats.charge(dram=dram, crypto=crypto, cycles=cycles, lane_at=lane_at)
    occupancy = dram * lat.dram_occupancy_cycles + crypto * lat.crypto_occupancy_cycles
    assert stats.occupancy(dram, crypto) == occupancy
    start = max(lane_free, lane_at)
    assert _state(stats) == (1000, start + occupancy + cycles, occupancy + cycles, 0)


@pytest.mark.parametrize("lat", LATENCIES, ids=IDS)
def test_consecutive_lane_charges_queue_back_to_back(lat):
    stats = _stats(lat, critical=0, lane_free=100)
    stats.charge(dram=5, lane_at=0)
    stats.charge(dram=2, crypto=2, lane_at=0)
    busy = stats.occupancy(5) + stats.occupancy(2, 2)
    assert (stats.lane_free, stats.lane_busy_cycles) == (100 + busy, busy)


def test_zero_crypto_costs_price_crypto_at_nothing():
    lat = LATENCIES[1]
    assert (lat.crypto_block_cycles, lat.crypto_occupancy_cycles) == (0, 0)
    stats = _stats(lat, critical=0)
    stats.charge(crypto=64)
    stats.charge(crypto=64, lane_at=0)
    assert _state(stats) == (0, 0, 0, 0)
