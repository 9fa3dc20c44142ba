import json

import pytest
from hypothesis import settings

from helpers import cli_chain

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def pa50(tmp_path_factory):
    """The directory of the CLI chain on a pa market of 50 goods (m = 3):
    pa50.json, pa50_basis.json (entry k valued 0.01 k), pa50.csv, and
    delta.json, which moves basis entry k by 0.001 k."""
    d = tmp_path_factory.mktemp("pa50")
    entries = cli_chain(d, "pa50", "--kind", "pa", "--n", "50", "--m", "3")[1]["data"]["entries"]
    (d / "delta.json").write_text(json.dumps({"basis": {"entries": entries}, "deltas": [0.001 * k for k in range(len(entries))]}))
    return d
