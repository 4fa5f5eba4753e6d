"""The shared algorithm registry: one nine-entry table for everyone."""

import pytest

from repro.registry import available, capabilities, resolve


def test_all_nine_algorithms_registered():
    names = available()
    assert len(names) == 9
    assert set(names) == {
        "bf-mhd",
        "si-mhd",
        "cdc",
        "bimodal",
        "subchunk",
        "sparse-indexing",
        "fingerdiff",
        "fbc",
        "extreme-binning",
    }


def test_resolve_returns_constructible_classes():
    for name in available():
        cls = resolve(name)
        assert cls.name == name
        assert cls().name == name  # default-constructible


def test_resolve_unknown_name_lists_alternatives():
    with pytest.raises(ValueError, match="bf-mhd"):
        resolve("no-such-algo")


def test_consumers_share_the_registry():
    """The CLI keeps no private copy of the table."""
    from repro import cli

    assert not hasattr(cli, "ALGORITHMS")
    parser = cli.build_parser()
    args = parser.parse_args(["run", "--algo", "extreme-binning"])
    assert args.algo == "extreme-binning"


def test_capabilities_cover_every_algorithm():
    """Every registered name answers; hook-bearing designs say so."""
    for name in available():
        caps = capabilities(name)
        assert isinstance(caps, frozenset)
    assert "hooks" in capabilities("bf-mhd")
    assert capabilities("sparse-indexing") >= {"hooks", "segments"}
    assert capabilities("extreme-binning") == {"representative"}
    assert capabilities("fbc") == frozenset()


def test_capabilities_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown"):
        capabilities("no-such-algo")
