import numpy as np
import pytest

from vdfourier.phantoms import rect_phantom, shepp_logan


def test_rect_phantom_rejects_a_grid_too_small_for_its_square():
    with pytest.raises(ValueError, match="n = 8 too small for a side-10 square"):
        rect_phantom(8)


@pytest.mark.parametrize("side", [0, -3])
def test_rect_phantom_rejects_a_side_below_one(side):
    with pytest.raises(ValueError, match=f"side must be >= 1, got {side}"):
        rect_phantom(16, side=side)


def test_rect_phantom_side_one_is_one_pixel():
    assert np.count_nonzero(rect_phantom(16, side=1)) == 1


def test_shepp_logan_rejects_a_grid_with_no_pixel_inside_the_head():
    # at n = 2 every pixel centre is a corner of [-1, 1]^2, outside every ellipse
    with pytest.raises(ValueError, match="n = 2 too small for the head phantom"):
        shepp_logan(2)
