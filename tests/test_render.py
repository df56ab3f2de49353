import re
from random import Random

import pytest

from conic_butterfly.cli import main
from conic_butterfly.conics import Conic
from conic_butterfly.projective import ProjLine, ProjPoint, ProjectiveError
from conic_butterfly.render import _border_anchor, render_svg
from conic_butterfly.scalars import GaussianRational, PrimeFieldElement
from conic_butterfly.scenario_io import (ScenarioDocument, claim_document, parse_scenario,
                                        run_document)
from conic_butterfly.scenarios import random_scenario

G = GaussianRational


def count_polylines(svg: str) -> int:
    return len(re.findall(r"<polyline ", svg))


class TestFixtures:
    def test_circle_butterfly(self, fixture_text):
        svg = render_svg(parse_scenario(fixture_text("butterfly_circle")))
        assert svg.startswith("<svg")
        assert count_polylines(svg) == 1  # one closed oval
        assert svg.count("(ideal)") == 1  # p is the ideal point of ab

    def test_hyperbola(self, fixture_text):
        svg = render_svg(parse_scenario(fixture_text("cutl_hyperbola")))
        assert count_polylines(svg) == 3  # branches split at the two ideal params
        assert "(ideal)" not in svg

    def test_hyperbola_swept_from_a_declared_ideal_base(self, fixture_text):
        """The sweep starts at a declared base.  From the ideal point
        (1 : 1 : 0), z(t) is linear, so one finite cut and t = inf split the
        two branches."""
        text = fixture_text("cutl_hyperbola").replace(
            "conic affine 1 -1 0 0 0 -1\n", "conic affine 1 -1 0 0 0 -1\nbase (1 : 1 : 0)\n")
        assert "base (1 : 1 : 0)" in text
        assert count_polylines(render_svg(parse_scenario(text))) == 2

    def test_lemma_figure_has_named_axis(self, fixture_text):
        svg = render_svg(parse_scenario(fixture_text("lemma1")))
        assert ">k</text>" in svg

    def test_deterministic(self, fixture_text):
        doc_text = fixture_text("butterfly_circle")
        assert render_svg(parse_scenario(doc_text)) == render_svg(parse_scenario(doc_text))

    def test_out_path(self, fixture_text, tmp_path):
        target = tmp_path / "figure.svg"
        svg = render_svg(parse_scenario(fixture_text("lemma1")), target)
        assert target.read_text(encoding="utf-8") == svg


class TestRejections:
    def test_prime_backend_rejected(self):
        text = """\
check nut
backend prime
conic symmetric 0 1 1 0 -2 0
line k (1 : 0 : 0)
point y (1 : 1 : 1)
point z (1 : 2 : 3)
"""
        with pytest.raises(ProjectiveError, match="gauss backend"):
            render_svg(parse_scenario(text))

    def test_complex_conic_rejected(self):
        i = G(0, 1)
        conic = Conic(((G(1), G(0), G(0)),
                       (G(0), i, G(0)),
                       (G(0), G(0), -G(1))), G)
        doc = ScenarioDocument(
            "nut", conic,
            {"y": ProjPoint((G(1), G(1), G(1)), G),
             "z": ProjPoint((G(1), G(2), G(3)), G)},
            {"k": ProjLine((G(1), G(0), G(0)), G)})
        with pytest.raises(ProjectiveError, match="not real"):
            render_svg(doc)

    def test_complex_point_rejected(self):
        # the conic is real but a labeled point is not
        i = G(0, 1)
        text = """\
check nut
conic symmetric 0 1/2 1/2 0 -1 0
line k (1 : 0 : 0)
point y (1 : 1 : 1)
point z (1 : 2 : 3)
"""
        doc = parse_scenario(text)
        doc.points["z"] = ProjPoint((i, G(1), G(1)), G)
        with pytest.raises(ProjectiveError, match="imaginary"):
            render_svg(doc)


    def test_collapsed_edge_is_an_input_error(self, tmp_path, capsys):
        """The chord from r through m is tangent, so the document's s is r:
        verify reports DEGENERATE and render refuses the edge rs, both with
        exit 2 and no traceback."""
        source = tmp_path / "tangent.scn"
        source.write_text("check damn\nconic symmetric 1 0 0 1 0 -1\npoint a (-1 : 0 : 1)\n"
                          "point b (1 : 0 : 1)\npoint m (5 : 0 : 3)\npoint r (3 : 4 : 5)\n"
                          "point f (0 : 1 : 1)\n")
        assert main(["verify", str(source)]) == 2
        assert "verdict DEGENERATE\nreason tangent chord (r,s)\n" in capsys.readouterr().out
        assert main(["render", str(source), "--out", str(tmp_path / "tangent.svg")]) == 2
        assert capsys.readouterr().err == "error: edge rs collapsed to a point\n"
        assert not (tmp_path / "tangent.svg").exists()


@pytest.mark.parametrize("direction, anchor", [((1.0, 0.0), (9.85, 5.0)), ((-1.0, 0.0), (0.15, 5.0)),
                                               ((0.0, 1.0), (5.0, 9.85)), ((0.0, -1.0), (5.0, 0.15))])
def test_ideal_point_anchors_on_the_border(direction, anchor):
    """An ideal point is drawn where the ray from the box center along its
    direction leaves the box, pulled in by 3%."""
    assert _border_anchor(direction, (0.0, 0.0, 10.0, 10.0)) == pytest.approx(anchor)


def test_random_real_scenario_renders():
    sc = random_scenario(Random(12), height_bound=5, kind="cutl")
    doc = claim_document("cutl", sc.conic, sc.points)
    svg = render_svg(doc)
    assert count_polylines(svg) >= 1
    for name in ("a", "b", "m", "r", "s", "u", "v"):
        assert f">{name}</text>" in svg or f">{name} (ideal)</text>" in svg


def _hyperbola_with_far_r(fixture_text, coords) -> str:
    """The hyperbola fixture with r moved to the given conic point and the
    expectations that depended on r dropped."""
    lines = []
    for line in fixture_text("cutl_hyperbola").splitlines():
        if line.startswith("point r "):
            line = "point r ({} : {} : {})".format(*coords)
        elif line.startswith(("expect point s", "expect point p", "expect point q")):
            continue
        lines.append(line)
    return "\n".join(lines) + "\n"


class TestFloatRange:
    """Exact coordinates past float range; the document itself HOLDS."""

    def test_point_outside_float_range_is_an_input_error(self, fixture_text, tmp_path, capsys):
        t = 10**400  # r = (t^2+1 : t^2-1 : 2t) sits near t/2 in the affine chart
        source = tmp_path / "far.scn"
        source.write_text(_hyperbola_with_far_r(fixture_text, (t * t + 1, t * t - 1, 2 * t)))
        assert main(["verify", str(source)]) == 0
        capsys.readouterr()
        assert main(["render", str(source), "--out", str(tmp_path / "far.svg")]) == 2
        err = capsys.readouterr().err
        assert err == "error: point r is outside float range; render cannot draw it\n"
        assert not (tmp_path / "far.svg").exists()

    def test_huge_coordinates_with_affine_values_in_range(self, fixture_text):
        # r's homogeneous coordinates are past 10^308, its chart values near 10^169
        t = 10**170
        doc = parse_scenario(_hyperbola_with_far_r(fixture_text, (t * t + 1, t * t - 1, 2 * t)))
        assert [r.verdict.value for r in run_document(doc)] == ["HOLDS", "HOLDS"]
        svg = render_svg(doc)
        assert count_polylines(svg) == 3
        assert "nan" not in svg and "inf" not in svg
        assert ">r</text>" in svg
