"""SVG figure generation: structure, determinism, row normalization."""
from xml.dom import minidom

import numpy as np
import pytest

from sleepstage.evaluation import ConfusionMatrix
from sleepstage.figures import confusion_heatmap_svg, hypnogram_svg


class TestHypnogramSvg:
    def test_basic_structure(self):
        svg = hypnogram_svg([4, 4, 3, 2, 1, 0], title="night one")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "night one" in svg
        for name in ("W", "R", "N1", "N2", "N3"):
            assert f">{name}</text>" in svg

    def test_reference_track_adds_second_path(self):
        plain = hypnogram_svg([4, 3, 2])
        overlay = hypnogram_svg([4, 3, 2], reference=[4, 4, 2])
        assert plain.count("<path") == 1
        assert overlay.count("<path") == 2
        assert "reference" in overlay and "reference" not in plain

    def test_gap_breaks_step_path(self):
        contiguous = hypnogram_svg([4, 4], indices=[0, 1])
        gapped = hypnogram_svg([4, 4], indices=[0, 5])
        assert contiguous.count("M ") == 1
        assert gapped.count("M ") == 2

    def test_deterministic(self):
        stages = list(np.random.default_rng(0).integers(0, 5, size=40))
        assert hypnogram_svg(stages) == hypnogram_svg(stages)


class TestHeatmapSvg:
    def test_counts_rendered(self):
        counts = np.arange(25).reshape(5, 5)
        svg = confusion_heatmap_svg(ConfusionMatrix(counts))
        assert svg.count("<rect") == 26  # 25 cells + background
        assert ">24</text>" in svg

    def test_shade_is_row_share(self):
        counts = np.zeros((5, 5), dtype=int)
        counts[4, 4] = 3   # true W predicted W
        counts[4, 0] = 1   # true W predicted N3
        svg = confusion_heatmap_svg(ConfusionMatrix(counts))
        assert 'fill-opacity="0.7500"' in svg
        assert 'fill-opacity="0.2500"' in svg

    def test_deterministic(self):
        counts = np.random.default_rng(1).integers(0, 50, size=(5, 5))
        cm = ConfusionMatrix(counts)
        assert confusion_heatmap_svg(cm) == confusion_heatmap_svg(cm)


@pytest.mark.parametrize("draw", [
    lambda title: hypnogram_svg([4, 3, 2], reference=[4, 4, 2], title=title),
    lambda title: confusion_heatmap_svg(ConfusionMatrix(np.eye(5, dtype=int)), title=title),
], ids=["hypnogram", "heatmap"])
def test_title_is_escaped_text(draw):
    title = "night&1 <a> \"b\" 'c'"
    doc = minidom.parseString(draw(title))
    assert doc.getElementsByTagName("text")[0].firstChild.data == title
