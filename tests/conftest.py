import pytest

from trackstitch.cbtr import build_links, run_cbtr
from trackstitch.model import CbtrConfig
from trackstitch.synth import SynthConfig, generate_fleet, scenario_s1


def small_mixed_config(seed: int, n_vessels: int = 4, duration_s: int = 1800,
                       noise_sigma_m: float = 8.0) -> SynthConfig:
    """A compact fleet with every behavior represented, for fast runs."""
    return SynthConfig(n_vessels=n_vessels, duration_s=duration_s,
                       noise_sigma_m=noise_sigma_m, seed=seed)


MODE_NAME = {1: "moving", 2: "steady", 0: None}


def link_of(ds, i, cfg=None):
    """Report i's link from build_links: (target, error, mode name), or None."""
    links = build_links(ds, cfg)
    if links.targets[i] < 0:
        return None
    return int(links.targets[i]), float(links.errors[i]), MODE_NAME[int(links.modes[i])]


@pytest.fixture(scope="session")
def s1():
    return generate_fleet(scenario_s1())


@pytest.fixture(scope="session")
def s1_cbtr(s1):
    return run_cbtr(s1, CbtrConfig())
