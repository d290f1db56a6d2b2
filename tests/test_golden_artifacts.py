"""Bytes of every file the CLI writes, pinned at unit-test size.

Each subcommand runs on mk_cfg() through absim.cli.main; the sha256 of each
file it leaves in its output directory must equal the recorded digest.
timings.json holds wall times and is left out. As in test_golden_reports,
the digests bind only under the numpy version they were recorded with, and
the bytes also depend on the CPU's SIMD dispatch level, by which numpy
picks its transcendental kernels: they were recorded with AVX-512 (X86_V4)
dispatch. These files passed with it turned off, but a CPU without it is
not covered by any check.
"""

import hashlib
import json

import numpy as np
import pytest

from absim.cli import main
from helpers import mk_cfg

DIGESTS_NUMPY = "2.4.6"

GOLDEN = {
    "condense-qa": (["condense", "--method", "qa"], {
        "anneal_trace.csv": "ee44329e9a6834124a968e3701fb0155286dabf0685fb5270de7b1930ec04d48",
        "centroids.csv": "3a4b05a6fec5b2ca1479a3351ddd5c8594c9f9f7bbf04968c5a4500357acc8d0",
        "edges.csv": "e0f5cbb9e8e06af91677c27e31caa4ead2a04f3a9b4e9c8798cf9b99bed66594",
    }),
    "train-qa": (["train", "--method", "qa"], {
        "centroids.csv": "3a4b05a6fec5b2ca1479a3351ddd5c8594c9f9f7bbf04968c5a4500357acc8d0",
        "edges.csv": "e0f5cbb9e8e06af91677c27e31caa4ead2a04f3a9b4e9c8798cf9b99bed66594",
        "learning_curve.csv": "fef2dab4c713d2fd571e3fa1a0ec1da8ee46541ebc1fe5ed49734d7e364cd4d6",
        "outage.csv": "166fdb1f02ad46a02ab0701baf9ec463da6285708f6bb6c6f2f1f62ee10a876f",
        "qtable.csv": "5383a24e891d3268cbc9cb93d9d15ddba9923434aa1eefd5c695a4eb3fe2835f",
        "report.json": "7a263b54db75223c3704d88ad7a942538e5d1b225514badb1c405d7d7b91e0bc",
        "trajectory.csv": "64243f8f084243c6b69bc43e5cbd4824ede10e0d98762baeaf9527f96c46f055",
    }),
    "train-snrp": (["train", "--method", "snrp"], {
        "centroids.csv": "3b09e4fcd2519d94040803d952c5760c1c0d519d3f9822ed4a3103b4e5651580",
        "edges.csv": "99ba6e3b4459886839f5ad965a407a81c17f59959bf3df9fade2bfe6269d0566",
        "learning_curve.csv": "69b8e0bf7877dc20dd4eaafb68f2624dbc81c7c51a0963f26a44ab0b097df8aa",
        "outage.csv": "50f209758b527aafbe1ef9629a7e3a36af839cffc8b3aa3ff6d86d0b26f2222f",
        "qtable.csv": "f911cd538b85977718c09ce2d1b8c166baa417618763e265a7f3d943b5f44ab5",
        "report.json": "4c83aed8577940b4b8bbdd05734b6f8d034519d50c5dbcaf3b0c94cd0e02011e",
        "trajectory.csv": "7a48f9af721d8b00a36868c59e22fc8f79840ddf335171d07ae44e2a41bcab8f",
    }),
    "compare": (["compare", "--seeds", "2"], {
        "learning_curves.csv": "cdafb4ba26d0c2de45b10682111a4e5e4d594c2ed643f31496e8944679ebfbfe",
        "outage.csv": "a936954b7ab7f1d71c790dc59fca1a1739cf6150492b8ad24e5b3a5b8e8c13c7",
        "summary.md": "f5eb198565862912dcf525484cbe993fa40ef46278f2053940dee54a21de8a7b",
    }),
    "sweep": (["sweep", "--mu", "15,40", "--seeds", "2"], {
        "sweep.csv": "3e5ae22b2f985dffdcb4c40e7a7f091aa1ed81eb6e05f30be433987254acede2",
    }),
    "evaluate": (["evaluate", "--method", "qa"], {
        "evaluation.json": "52a54e572fe2706798b339bab302f9f740d36e77cdb1c2cc11bc596a5b0c8763",
    }),
}


def _digests(out) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "timings.json"}


@pytest.mark.skipif(np.__version__ != DIGESTS_NUMPY,
                    reason=f"golden digests recorded under numpy {DIGESTS_NUMPY}, "
                           f"running numpy {np.__version__}")
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_artifact_bytes_match_golden(case, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(mk_cfg().to_dict()))
    args, want = GOLDEN[case]
    if case == "evaluate":
        assert main(["train", "--method", "qa", "--config", str(config),
                     "--out", str(tmp_path / "train")]) == 0
        args = args + ["--qtable", str(tmp_path / "train" / "qtable.csv")]
    out = tmp_path / "out"
    assert main(args + ["--config", str(config), "--out", str(out)]) == 0
    assert _digests(out) == want
