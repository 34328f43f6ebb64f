"""64-channel 10-10 montage with fixed 2-D projected scalp coordinates.

Coordinates come from an idealized spherical head: the vertex (Cz) projects to
the origin, the 10% ring (Fp1 ... T7 ... Oz) to radius 0.9, and the four
below-ring temporal sites (FT9/FT10, TP9/TP10) to radius 1.0. x is positive
toward the right ear, y toward the nasion, both in [-1, 1]. Region tags mark
the frontal-central and temporal channel groups used by the synthetic
generator and by the recovery checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import UnknownChannel


class Region(Enum):
    FRONTAL_CENTRAL = "frontal_central"
    TEMPORAL = "temporal"
    OTHER = "other"


# (name, x, y, region), front of head at the top, left hemisphere negative x.
_CHANNEL_TABLE = (
    ("Fp1", -0.2781, 0.8560, Region.OTHER),
    ("Fp2", 0.2781, 0.8560, Region.OTHER),
    ("AF7", -0.5290, 0.7281, Region.OTHER),
    ("AF3", -0.2580, 0.7285, Region.OTHER),
    ("AFz", 0.0000, 0.6750, Region.OTHER),
    ("AF4", 0.2580, 0.7285, Region.OTHER),
    ("AF8", 0.5290, 0.7281, Region.OTHER),
    ("F7", -0.7281, 0.5290, Region.OTHER),
    ("F5", -0.5399, 0.5408, Region.OTHER),
    ("F3", -0.3552, 0.5295, Region.OTHER),
    ("F1", -0.1750, 0.4985, Region.FRONTAL_CENTRAL),
    ("Fz", 0.0000, 0.4500, Region.FRONTAL_CENTRAL),
    ("F2", 0.1750, 0.4985, Region.FRONTAL_CENTRAL),
    ("F4", 0.3552, 0.5295, Region.OTHER),
    ("F6", 0.5399, 0.5408, Region.OTHER),
    ("F8", 0.7281, 0.5290, Region.OTHER),
    ("FT9", -0.9511, 0.3090, Region.TEMPORAL),
    ("FT7", -0.8560, 0.2781, Region.TEMPORAL),
    ("FC5", -0.6393, 0.2897, Region.OTHER),
    ("FC3", -0.4242, 0.2828, Region.FRONTAL_CENTRAL),
    ("FC1", -0.2110, 0.2606, Region.FRONTAL_CENTRAL),
    ("FCz", 0.0000, 0.2250, Region.FRONTAL_CENTRAL),
    ("FC2", 0.2110, 0.2606, Region.FRONTAL_CENTRAL),
    ("FC4", 0.4242, 0.2828, Region.FRONTAL_CENTRAL),
    ("FC6", 0.6393, 0.2897, Region.OTHER),
    ("FT8", 0.8560, 0.2781, Region.TEMPORAL),
    ("FT10", 0.9511, 0.3090, Region.TEMPORAL),
    ("T7", -0.9000, 0.0000, Region.TEMPORAL),
    ("C5", -0.6750, 0.0000, Region.OTHER),
    ("C3", -0.4500, 0.0000, Region.OTHER),
    ("C1", -0.2250, 0.0000, Region.FRONTAL_CENTRAL),
    ("Cz", 0.0000, 0.0000, Region.FRONTAL_CENTRAL),
    ("C2", 0.2250, 0.0000, Region.FRONTAL_CENTRAL),
    ("C4", 0.4500, 0.0000, Region.OTHER),
    ("C6", 0.6750, 0.0000, Region.OTHER),
    ("T8", 0.9000, 0.0000, Region.TEMPORAL),
    ("TP9", -0.9511, -0.3090, Region.TEMPORAL),
    ("TP7", -0.8560, -0.2781, Region.TEMPORAL),
    ("CP5", -0.6393, -0.2897, Region.OTHER),
    ("CP3", -0.4242, -0.2828, Region.OTHER),
    ("CP1", -0.2110, -0.2606, Region.OTHER),
    ("CPz", 0.0000, -0.2250, Region.OTHER),
    ("CP2", 0.2110, -0.2606, Region.OTHER),
    ("CP4", 0.4242, -0.2828, Region.OTHER),
    ("CP6", 0.6393, -0.2897, Region.OTHER),
    ("TP8", 0.8560, -0.2781, Region.TEMPORAL),
    ("TP10", 0.9511, -0.3090, Region.TEMPORAL),
    ("P7", -0.7281, -0.5290, Region.OTHER),
    ("P5", -0.5399, -0.5408, Region.OTHER),
    ("P3", -0.3552, -0.5295, Region.OTHER),
    ("P1", -0.1750, -0.4985, Region.OTHER),
    ("Pz", 0.0000, -0.4500, Region.OTHER),
    ("P2", 0.1750, -0.4985, Region.OTHER),
    ("P4", 0.3552, -0.5295, Region.OTHER),
    ("P6", 0.5399, -0.5408, Region.OTHER),
    ("P8", 0.7281, -0.5290, Region.OTHER),
    ("PO7", -0.5290, -0.7281, Region.OTHER),
    ("PO3", -0.2580, -0.7285, Region.OTHER),
    ("POz", 0.0000, -0.6750, Region.OTHER),
    ("PO4", 0.2580, -0.7285, Region.OTHER),
    ("PO8", 0.5290, -0.7281, Region.OTHER),
    ("O1", -0.2781, -0.8560, Region.OTHER),
    ("Oz", 0.0000, -0.9000, Region.OTHER),
    ("O2", 0.2781, -0.8560, Region.OTHER),
)


@dataclass(frozen=True)
class ChannelEntry:
    name: str
    x: float
    y: float
    region: Region


class Montage:
    """Immutable lookup table: channel name -> (x, y, region)."""

    def __init__(self, entries: tuple[ChannelEntry, ...]):
        self._entries = entries
        self._by_name = {e.name: e for e in entries}
        if len(self._by_name) != len(entries):
            raise ValueError("montage channel names must be unique")

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def entry(self, name: str) -> ChannelEntry:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownChannel(f"channel {name!r} is not in the montage") from None

    def names_in_region(self, region: Region) -> tuple[str, ...]:
        return tuple(e.name for e in self._entries if e.region == region)


def default_montage() -> Montage:
    """The embedded 64-channel montage."""
    return _DEFAULT


_DEFAULT = Montage(tuple(ChannelEntry(*row) for row in _CHANNEL_TABLE))
