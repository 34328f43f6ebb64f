import pytest

from eegintent.errors import UnknownChannel
from eegintent.montage import Region, default_montage


@pytest.fixture(scope="module")
def montage():
    return default_montage()


def test_has_64_unique_channels(montage):
    assert len(montage) == 64
    assert len(set(montage.channel_names)) == 64


def test_vertex_at_origin(montage):
    e = montage.entry("Cz")
    assert (e.x, e.y) == (0.0, 0.0)
    assert e.region is Region.FRONTAL_CENTRAL


def test_t7_on_left_rim(montage):
    e = montage.entry("T7")
    assert (e.x, e.y) == (-0.9, 0.0)
    assert e.region is Region.TEMPORAL


def test_unknown_channel(montage):
    with pytest.raises(UnknownChannel):
        montage.entry("XX")


def test_coordinates_inside_unit_box(montage):
    for name in montage.channel_names:
        e = montage.entry(name)
        assert -1.0 <= e.x <= 1.0 and -1.0 <= e.y <= 1.0


def test_required_region_members(montage):
    frontal = set(montage.names_in_region(Region.FRONTAL_CENTRAL))
    temporal = set(montage.names_in_region(Region.TEMPORAL))
    assert {"Fz", "FCz", "FC1", "FC2", "Cz", "C1", "C2"} <= frontal
    assert {"T7", "T8", "FT7", "FT8", "TP7", "TP8"} <= temporal
    assert not frontal & temporal


def test_left_right_symmetry(montage):
    pairs = [("F3", "F4"), ("C3", "C4"), ("P7", "P8"), ("FT9", "FT10")]
    for left, right in pairs:
        el, er = montage.entry(left), montage.entry(right)
        assert el.x == pytest.approx(-er.x)
        assert el.y == pytest.approx(er.y)
