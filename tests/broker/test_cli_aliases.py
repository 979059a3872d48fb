"""Every registered artifact is a ``repro <name>`` subcommand."""

import pytest

from repro.__main__ import _cmd_artifact, build_parser
from repro.broker.registry import REGISTRY


@pytest.mark.parametrize("name", list(REGISTRY))
def test_registry_name_parses_as_subcommand(name):
    args = build_parser().parse_args([name])
    assert args.command == name
    assert args.func is _cmd_artifact
