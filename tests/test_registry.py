"""The shared algorithm registry: one six-entry table for everyone."""

import pytest

from repro.registry import available, resolve


def test_all_six_algorithms_registered():
    names = available()
    assert len(names) == 6
    assert set(names) == {
        "bf-mhd",
        "si-mhd",
        "cdc",
        "bimodal",
        "subchunk",
        "sparse-indexing",
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
    args = parser.parse_args(["run", "--algo", "sparse-indexing"])
    assert args.algo == "sparse-indexing"

