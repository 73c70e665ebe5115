import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from macrodml.errors import DataError, LengthMismatch
from macrodml.panel_data import CSV_BLOCK
from macrodml.plots import render_corr_heatmap, render_residuals, render_scree


def svg_root(text):
    """Parsing doubles as a well-formedness check."""
    return ET.fromstring(text)


# ---------------------------------------------------------------------------
# correlation heatmap
# ---------------------------------------------------------------------------

def test_heatmap_identity_colors():
    svg = render_corr_heatmap(np.eye(2), ["a", "b"])
    svg_root(svg)
    # r = +1 -> pure red on the diagonal, r = 0 -> white elsewhere
    assert svg.count("rgb(255,0,0)") == 2
    assert svg.count("rgb(255,255,255)") == 2
    assert svg.count("<rect") == 5  # background + 4 cells


def test_heatmap_negative_and_clamped_colors():
    corr = np.array([[1.0, -1.0], [-1.0, 1.5]])  # 1.5 clamps to pure red
    svg = render_corr_heatmap(corr, ["x", "y"])
    assert svg.count("rgb(0,0,255)") == 2
    assert svg.count("rgb(255,0,0)") == 2


def test_heatmap_half_correlation_color():
    svg = render_corr_heatmap(np.array([[1.0, 0.5], [0.5, 1.0]]), ["p", "q"])
    assert svg.count("rgb(255,128,128)") == 2  # round(255 * 0.5) = 128


def test_heatmap_labels_and_cell_text():
    svg = render_corr_heatmap(np.eye(3), ["alpha", "beta", "gamma"])
    for name in ("alpha", "beta", "gamma"):
        assert svg.count(f">{name}</text>") == 2  # row label + column label
    assert svg.count(">1.00</text>") == 3
    assert svg.count(">0.00</text>") == 6


def test_heatmap_escapes_its_labels():
    labels = ["a<b", "r&d", "x > y", "&lt;", 'q"uote\'s']
    svg = render_corr_heatmap(np.eye(5), labels)
    texts = [el.text for el in svg_root(svg).iter() if el.tag.endswith("text")]
    assert [texts.count(label) for label in labels] == [2] * 5
    assert [svg.count(f">{escape(label)}</text>") for label in labels] == [2] * 5


def test_heatmap_rejects_bad_input():
    with pytest.raises(DataError):
        render_corr_heatmap(np.ones((2, 3)), ["a", "b"])
    with pytest.raises(DataError, match="finite"):
        render_corr_heatmap(np.array([[1.0, np.nan], [np.nan, 1.0]]), ["a", "b"])
    with pytest.raises(LengthMismatch):
        render_corr_heatmap(np.eye(2), ["only-one"])


# ---------------------------------------------------------------------------
# scree bars
# ---------------------------------------------------------------------------

def bar_heights(svg):
    return [
        float(m.group(1))
        for m in re.finditer(r"height='([0-9.]+)' fill='steelblue'", svg)
    ]


def test_scree_bar_heights_are_exact_fractions():
    svg = render_scree(np.array([0.5, 0.3, 0.2]))
    svg_root(svg)
    assert bar_heights(svg) == [120.0, 72.0, 48.0]


def test_scree_bars_sum_to_axis_height():
    ratios = np.array([0.4, 0.25, 0.2, 0.1, 0.05])
    heights = bar_heights(render_scree(ratios))
    assert len(heights) == 5
    assert sum(heights) == pytest.approx(240.0, abs=1e-9)
    assert heights == sorted(heights, reverse=True)


def test_scree_value_labels():
    svg = render_scree(np.array([0.75, 0.25]))
    assert ">PC1</text>" in svg and ">PC2</text>" in svg
    assert ">0.750</text>" in svg and ">0.250</text>" in svg


def test_scree_rejects_bad_input():
    with pytest.raises(DataError):
        render_scree(np.array([]))
    with pytest.raises(DataError):
        render_scree(np.ones((2, 2)))
    with pytest.raises(DataError, match="finite"):
        render_scree(np.array([0.5, np.nan]))


# ---------------------------------------------------------------------------
# residuals vs fitted
# ---------------------------------------------------------------------------

def test_zero_residuals_collapse_onto_zero_line():
    fitted = np.array([1.0, 2.0, 3.0])
    svg = render_residuals(fitted, np.zeros(3))
    svg_root(svg)
    # symmetric y scale puts zero dead center: 50 + 300/2
    assert "y1='200.0000'" in svg and "y2='200.0000'" in svg
    assert svg.count("cy='200.0000'") == 3


def test_residual_x_scale_hits_frame_edges():
    svg = render_residuals(np.array([-1.0, 0.0, 3.0]), np.array([0.5, -0.5, 0.25]))
    assert "cx='50.0000'" in svg  # min fitted at the left edge
    assert "cx='510.0000'" in svg  # max fitted at pad + width


def test_residual_extremes_hit_frame_top_and_bottom():
    svg = render_residuals(np.array([0.0, 1.0]), np.array([2.0, -2.0]))
    assert "cy='50.0000'" in svg and "cy='350.0000'" in svg


def test_residuals_reject_bad_input():
    with pytest.raises(LengthMismatch):
        render_residuals(np.arange(3.0), np.arange(4.0))
    with pytest.raises(LengthMismatch):
        render_residuals(np.array([]), np.array([]))
    with pytest.raises(LengthMismatch):
        render_residuals(np.ones((2, 2)), np.ones((2, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="finite"):
            render_residuals(np.array([0.0, bad]), np.zeros(2))
        with pytest.raises(DataError, match="finite"):
            render_residuals(np.zeros(2), np.array([bad, 0.0]))


def test_renderers_are_deterministic(rng):
    fitted = rng.standard_normal(40)
    resid = rng.standard_normal(40)
    assert render_residuals(fitted, resid) == render_residuals(fitted, resid)
    corr = np.corrcoef(rng.standard_normal((4, 30)))
    assert render_corr_heatmap(corr, list("abcd")) == render_corr_heatmap(corr, list("abcd"))


def _scatter_by_point(fitted, residuals):
    """The scatter as it was assembled before it was rendered in bulk: one
    scalar mapping and one f-string per point. Kept as the byte reference."""
    fitted = np.asarray(fitted, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    x_lo, x_hi = float(fitted.min()), float(fitted.max())
    r_max = float(np.max(np.abs(residuals)))
    y_lim = r_max if r_max > 0 else 1.0
    x_span = (x_hi - x_lo) if x_hi > x_lo else 1.0
    pad = 50.0

    def sx(v: float) -> float:
        return pad + (v - x_lo) / x_span * 460.0

    def sy(v: float) -> float:
        return pad + (1.0 - (v + y_lim) / (2.0 * y_lim)) * 300.0

    zero_y = sy(0.0)
    width, height = int(460.0 + 2 * pad), int(300.0 + 2 * pad)
    font = "font-family='monospace' font-size='11'"
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        "<rect width='100%' height='100%' fill='white'/>",
        f"<line x1='{pad:.1f}' y1='{zero_y:.4f}' x2='{pad + 460.0:.1f}' "
        f"y2='{zero_y:.4f}' stroke='black' stroke-dasharray='4 3'/>",
        f"<text x='{pad:.1f}' y='{height - 12}' {font}>fitted</text>",
        f"<text x='12' y='{pad:.1f}' {font}>residual</text>",
    ]
    for fv, rv in zip(fitted, residuals):
        parts.append(
            f"<circle cx='{sx(fv):.4f}' cy='{sy(rv):.4f}' r='2.5' "
            "fill='steelblue' fill-opacity='0.55'/>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


@pytest.mark.parametrize("case", ["random", "scaled", "one_point", "zero_residuals", "constant_fitted",
                                  "two_blocks", "blocks_and_a_part"])
def test_scatter_matches_the_per_point_reference(case):
    """2,000 points fit in one CSV_BLOCK block; 16,384 fill exactly two and
    20,000 end in a part block."""
    n = {"two_blocks": 2 * CSV_BLOCK, "blocks_and_a_part": 20_000}.get(case, 2000)
    assert CSV_BLOCK == 8192  # the sizes above are chosen for this block
    rng = np.random.default_rng(21)
    fitted, resid = rng.standard_normal(n), rng.standard_normal(n)
    if case == "scaled":
        fitted, resid = fitted * 1e6 - 3e7, resid * 1e-9
    elif case == "one_point":
        fitted, resid = np.array([0.37]), np.array([-1.25])
    elif case == "zero_residuals":
        resid = np.zeros_like(fitted)
    elif case == "constant_fitted":
        fitted = np.full_like(fitted, 2.5)
    assert render_residuals(fitted, resid) == _scatter_by_point(fitted, resid)
