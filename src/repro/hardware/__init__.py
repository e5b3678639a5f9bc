"""Hardware models: CPUs, disks, interconnects and machine configurations."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".configs": ("KB", "MB", "GammaConfig", "TeradataConfig"),
    ".costs": ("DEFAULT_GAMMA_COSTS", "GammaCosts"),
    ".cpu": ("INTEL_80286", "VAX_11_750", "CpuModel"),
    ".disk": ("FUJITSU_M2333", "HITACHI_DK815", "DiskDrive", "DiskModel"),
    ".network": (
        "GAMMA_NETWORK", "YNET_NETWORK", "Interconnect", "NetworkInterface",
        "NetworkModel",
    ),
})
