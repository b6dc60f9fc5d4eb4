import pytest

from vdfourier.phantoms import rect_phantom, shepp_logan


def test_rect_phantom_rejects_a_grid_too_small_for_its_square():
    with pytest.raises(ValueError, match="n = 8 too small for a side-10 square"):
        rect_phantom(8)


def test_shepp_logan_rejects_a_grid_with_no_pixel_inside_the_head():
    # at n = 2 every pixel centre is a corner of [-1, 1]^2, outside every ellipse
    with pytest.raises(ValueError, match="n = 2 too small for the head phantom"):
        shepp_logan(2)
