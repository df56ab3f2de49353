from importlib import resources

import pytest
from hypothesis import Phase, settings

# Hypothesis's explain phase reruns a shrunk failing example with each draw
# varied, to mark the draws that do not matter.  On the kernel properties it
# took 1.5 to 4.5 minutes and up to 600 MB after shrinking had finished, so it
# is left out; a failure still reports its shrunk example.
settings.register_profile("no-explain", phases=tuple(p for p in Phase if p is not Phase.explain))
settings.load_profile("no-explain")
# mutants.py selects this one with --hypothesis-profile: a kill needs no
# shrunk example, and a failing property once shrank for about 6 minutes
settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate), database=None)


@pytest.fixture(scope="session")
def fixtures_dir():
    return resources.files("conic_butterfly") / "fixtures"


@pytest.fixture(scope="session")
def fixture_text(fixtures_dir):
    def load(name: str) -> str:
        return (fixtures_dir / f"{name}.scn").read_text(encoding="utf-8")

    return load
