"""Cloudlet-scale carbon modelling (paper Section 5.2, Figure 5).

A cloudlet is a :class:`~repro.core.cci.DeviceCarbonModel` with
``n_devices`` of one device type plus whatever peripherals and networking
the design needs; the model evaluates the cluster-level CCI of Equations
12-13: device embodied carbon (zero for reused hardware), battery
replacements, peripheral embodied carbon, operational carbon for devices
and peripherals (the smart-charging discount applies to device draw only),
and the C_N networking term for the cluster's sustained data rate over its
topology.

:func:`paper_cloudlets` builds the five comparison points of the paper's
Figure 5 for a given benchmark and power regime:

1. a single new PowerEdge R740 (the baseline that pays manufacturing carbon);
2. 17 ThinkPad X1 laptops with smart plugs;
3. 20 ProLiant DL380 G6 servers;
4. N Pixel 3A phones (54 for SGEMM) with smart plugs and one fan;
5. N Nexus 4 phones (256 for SGEMM) with smart plugs and two fans.

In the 100 %-solar regime smart charging is pointless (the grid intensity is
flat), so smart plugs are removed and batteries are bypassed rather than
replaced — exactly the assumption behind the second row of Figure 5.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.cluster.peripherals import PeripheralSet
from repro.cluster.sizing import devices_needed
from repro.cluster.topology import wifi_tree_topology, wired_topology
from repro.core.cci import DeviceCarbonModel
from repro.devices.benchmarks import MicroBenchmark
from repro.devices.catalog import (
    NEXUS_4,
    PIXEL_3A,
    POWEREDGE_R740,
    PROLIANT_DL380_G6,
    THINKPAD_X1_CARBON_G3,
)
from repro.devices.specs import DeviceSpec
from repro.grid.mix import EnergyMix, california, solar_24_7
from repro.thermal.cooling import plan_cooling

#: Sustained external data rate assumed for every cloudlet (0.1 Gbps), from
#: the paper's Section 5.2 networking-carbon calculation.
DEFAULT_CLUSTER_NET_RATE_BYTES_PER_S = 0.1e9 / 8.0

#: Smart-charging savings the paper applies at cloudlet scale.
PHONE_SMART_CHARGING_DISCOUNT = 0.07
LAPTOP_SMART_CHARGING_DISCOUNT = 0.04

# ---------------------------------------------------------------------------
# The paper's five comparison cloudlets.
# ---------------------------------------------------------------------------


def poweredge_baseline(energy_mix: EnergyMix = None) -> DeviceCarbonModel:
    """A single brand-new PowerEdge R740 on wired infrastructure."""
    return DeviceCarbonModel(
        device=POWEREDGE_R740,
        energy_mix=energy_mix or california(),
        reused=False,
        network_rate_bytes_per_s=DEFAULT_CLUSTER_NET_RATE_BYTES_PER_S,
        network_energy_intensity_j_per_byte=wired_topology().energy_intensity_j_per_byte,
    )


def proliant_cloudlet(
    benchmark: Union[MicroBenchmark, str], energy_mix: EnergyMix = None
) -> DeviceCarbonModel:
    """N reused ProLiant DL380 G6 servers on wired infrastructure."""
    return DeviceCarbonModel(
        device=PROLIANT_DL380_G6,
        n_devices=devices_needed(PROLIANT_DL380_G6, benchmark),
        energy_mix=energy_mix or california(),
        network_rate_bytes_per_s=DEFAULT_CLUSTER_NET_RATE_BYTES_PER_S,
        network_energy_intensity_j_per_byte=wired_topology().energy_intensity_j_per_byte,
    )


def thinkpad_cloudlet(
    benchmark: Union[MicroBenchmark, str],
    energy_mix: EnergyMix = None,
    smart_charging: bool = True,
) -> DeviceCarbonModel:
    """N reused ThinkPad laptops with per-device smart plugs."""
    n = devices_needed(THINKPAD_X1_CARBON_G3, benchmark)
    return DeviceCarbonModel(
        device=THINKPAD_X1_CARBON_G3,
        n_devices=n,
        energy_mix=energy_mix
        or california(smart_charging_discount=LAPTOP_SMART_CHARGING_DISCOUNT),
        smart_charging=smart_charging,
        include_battery_replacement=smart_charging,
        peripherals=PeripheralSet.for_laptop_cloudlet(n, include_smart_plugs=smart_charging),
        network_rate_bytes_per_s=DEFAULT_CLUSTER_NET_RATE_BYTES_PER_S,
        network_energy_intensity_j_per_byte=wired_topology().energy_intensity_j_per_byte,
    )


def _smartphone_cloudlet(
    device: DeviceSpec,
    benchmark: Union[MicroBenchmark, str],
    energy_mix: EnergyMix,
    smart_charging: bool,
) -> DeviceCarbonModel:
    n = devices_needed(device, benchmark)
    cooling = plan_cooling(device, n)
    peripherals = PeripheralSet.for_smartphone_cloudlet(
        n_devices=n, n_fans=cooling.fans, include_smart_plugs=smart_charging
    )
    return DeviceCarbonModel(
        device=device,
        n_devices=n,
        energy_mix=energy_mix,
        smart_charging=smart_charging,
        include_battery_replacement=smart_charging,
        peripherals=peripherals,
        network_rate_bytes_per_s=DEFAULT_CLUSTER_NET_RATE_BYTES_PER_S,
        network_energy_intensity_j_per_byte=wifi_tree_topology().energy_intensity_j_per_byte,
    )


def pixel_cloudlet_design(
    benchmark: Union[MicroBenchmark, str],
    energy_mix: EnergyMix = None,
    smart_charging: bool = True,
) -> DeviceCarbonModel:
    """N reused Pixel 3A phones with smart plugs and fan cooling."""
    mix = energy_mix or california(smart_charging_discount=PHONE_SMART_CHARGING_DISCOUNT)
    return _smartphone_cloudlet(PIXEL_3A, benchmark, mix, smart_charging)


def nexus4_cloudlet_design(
    benchmark: Union[MicroBenchmark, str],
    energy_mix: EnergyMix = None,
    smart_charging: bool = True,
) -> DeviceCarbonModel:
    """N reused Nexus 4 phones with smart plugs and fan cooling."""
    mix = energy_mix or california(smart_charging_discount=PHONE_SMART_CHARGING_DISCOUNT)
    return _smartphone_cloudlet(NEXUS_4, benchmark, mix, smart_charging)


def paper_cloudlets(
    benchmark: Union[MicroBenchmark, str], regime: str = "california"
) -> Dict[str, DeviceCarbonModel]:
    """The five Figure 5 comparison systems for one benchmark and power regime.

    ``regime`` is ``"california"`` (smart charging, battery replacement,
    smart plugs) or ``"solar"`` (24/7 solar: flat intensity, no smart
    charging, batteries bypassed, no smart plugs).
    """
    if regime == "california":
        designs = {
            "PowerEdge R740": poweredge_baseline(),
            "ProLiant": proliant_cloudlet(benchmark),
            "ThinkPad": thinkpad_cloudlet(benchmark),
            "Pixel 3A": pixel_cloudlet_design(benchmark),
            "Nexus 4": nexus4_cloudlet_design(benchmark),
        }
    elif regime == "solar":
        solar = solar_24_7()
        designs = {
            "PowerEdge R740": poweredge_baseline(solar),
            "ProLiant": proliant_cloudlet(benchmark, solar),
            "ThinkPad": thinkpad_cloudlet(benchmark, solar, smart_charging=False),
            "Pixel 3A": pixel_cloudlet_design(benchmark, solar, smart_charging=False),
            "Nexus 4": nexus4_cloudlet_design(benchmark, solar, smart_charging=False),
        }
    else:
        raise ValueError(f"unknown regime {regime!r}; expected 'california' or 'solar'")
    return designs
