"""Floor binning refuses a bin width so small that a bin index overflows."""

import pytest

from heatpred.binning import floor_bin, floor_bin_means, floor_histogram


@pytest.mark.parametrize(
    "binned",
    [
        lambda width: floor_bin(2.5, width),
        lambda width: floor_histogram([0.0, 2.5], width),
        lambda width: floor_bin_means([(0.0, 1.0), (2.5, 1.0)], width, 1),
    ],
    ids=["floor_bin", "floor_histogram", "floor_bin_means"],
)
def test_overflowing_bin_index_names_bin_width(binned):
    with pytest.raises(ValueError, match=r"^bin_width: 1e-320 is too small to bin the value 2\.5$"):
        binned(1e-320)
