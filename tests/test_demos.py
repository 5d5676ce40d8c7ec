"""The demos print what they printed when these digests were recorded: a
change that moves one byte of a demo's output moves its digest."""

import hashlib
import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
STDOUT_SHA256 = {
    "01_bernoulli_family.py": "ef22ac50c2441aa67a81bb1a14148d04f0805c22a1699b005024834658017932",
    "02_outside_interval.py": "79deae2db5f57316031cdd35026a0784f53637b988bf04b357427cbfac7f5e2c",
    "03_private_sprt.py": "0c9ef99d7a30d668cee3454a2d21bf16e6aaf9aa48d270e9f56f7686e9c0da98",
    "04_bounds.py": "d9c8f26228a19665611ba7e43491153294170d16b536e558239adae9e4ffdcac",
    "05_subsampling.py": "b57224c95fcc86ce834e2696cc21d067d863bcc5ef0f147344544698b7310eed",
    "06_privsprt_baseline.py": "f4daa12a31bfdd4d17974182ae05e1b8d6f81d142fce7f564ffef4143f1f2dc1",
    "07_privacy_accounting.py": "5f7ff79020e8a7adcc9040fb88073e77ca75efae2262eb13e04ba7f1eda737d6",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_digest(name):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == STDOUT_SHA256[name]
