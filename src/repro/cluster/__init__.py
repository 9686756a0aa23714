"""Cluster design: sizing, peripherals, topologies, cloudlets, datacenters."""

from repro.cluster.cloudlet import (
    DEFAULT_CLUSTER_NET_RATE_BYTES_PER_S,
    LAPTOP_SMART_CHARGING_DISCOUNT,
    PHONE_SMART_CHARGING_DISCOUNT,
    nexus4_cloudlet_design,
    paper_cloudlets,
    pixel_cloudlet_design,
    poweredge_baseline,
    proliant_cloudlet,
    thinkpad_cloudlet,
)
from repro.cluster.datacenter import (
    DatacenterDesign,
    poweredge_datacenter,
    smartphone_datacenter,
    table4_projections,
)
from repro.cluster.peripherals import (
    SERVER_FAN,
    SMART_PLUG,
    USB_CHARGING_HUB,
    WIFI_ACCESS_POINT,
    Peripheral,
    PeripheralSet,
)
from repro.cluster.sizing import (
    EquivalenceRow,
    cluster_throughput,
    devices_needed,
    equivalence_table,
)
from repro.cluster.topology import (
    NetworkTopology,
    lte_uplink_topology,
    shared_wifi_topology,
    wifi_tree_topology,
    wired_topology,
)

__all__ = [
    "devices_needed",
    "equivalence_table",
    "EquivalenceRow",
    "cluster_throughput",
    "Peripheral",
    "PeripheralSet",
    "SERVER_FAN",
    "SMART_PLUG",
    "WIFI_ACCESS_POINT",
    "USB_CHARGING_HUB",
    "NetworkTopology",
    "wifi_tree_topology",
    "lte_uplink_topology",
    "shared_wifi_topology",
    "wired_topology",
    "paper_cloudlets",
    "poweredge_baseline",
    "proliant_cloudlet",
    "thinkpad_cloudlet",
    "pixel_cloudlet_design",
    "nexus4_cloudlet_design",
    "PHONE_SMART_CHARGING_DISCOUNT",
    "LAPTOP_SMART_CHARGING_DISCOUNT",
    "DEFAULT_CLUSTER_NET_RATE_BYTES_PER_S",
    "DatacenterDesign",
    "poweredge_datacenter",
    "smartphone_datacenter",
    "table4_projections",
]
