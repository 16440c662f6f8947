"""The one clause grammar behind --faults, --network, --traffic, --cluster.

Each family keeps its own reject table next to its own tests; this module
pins what the families share: errors name their own family, ``,`` joins
clauses like ``;``, a token after ``;`` must name a clause, and every spec
string the docs and CI show parses under its family.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro import ConfigError
from repro.cluster import parse_cluster_spec
from repro.coherence.links import parse_network_spec
from repro.faults import parse_fault_spec
from repro.traffic import parse_traffic_spec

from test_cluster import CLUSTER_REJECTS
from test_faults import FAULT_REJECTS
from test_links import NETWORK_REJECTS
from test_traffic import TRAFFIC_REJECTS

ROOT = Path(__file__).resolve().parent.parent

#: family name -> (parser, the CLI flag, its reject table's bad specs).
FAMILIES = {
    "fault": (parse_fault_spec, "--faults",
              [bad for bad, _ in FAULT_REJECTS]),
    "network": (parse_network_spec, "--network",
                [bad for bad, _ in NETWORK_REJECTS]),
    "traffic": (parse_traffic_spec, "--traffic",
                [bad for bad, _ in TRAFFIC_REJECTS]),
    "cluster": (parse_cluster_spec, "--cluster", CLUSTER_REJECTS),
}
PARSER_BY_FLAG = {flag: parse for parse, flag, _ in FAMILIES.values()}

#: One spec per family using every clause, written with ``;``.
FULL_SPECS = {
    "fault": "net_jitter:p=0.01,max=200;dir_nack:p=0.005,retries=2;"
             "timer_skew:±8;slow_core:3@10x,1@2x;"
             "link_degrade:p=0.5,factor=4,queue=2",
    "network": "link:bw=2,queue=8,flits=4;arb:wrr,weights=2:1;"
               "port:dir=2,mem=4,queue=3",
    "traffic": "burst:rate=4,on=3000,off=9000;hotset:frac=0.9,size=8,"
               "shift=64;tenants=2;queue=8;ops=32;slo:p99=2500,shed=0.01",
    "cluster": "delay:min=60,max=160;loss:p=0.05;dup:p=0.02;"
               "partition:p=0.01,len=2000,check=400;skew:±40",
}

#: Per family, a clause followed by ``;`` and one of its own parameters.
PARAM_AFTER_SEMICOLON = {
    "fault": "dir_nack:p=0.1;retries=2",
    "network": "arb:wrr;weights=2:1",
    "traffic": "burst:rate=4;on=10,off=10",
    "cluster": "partition:p=0.1;len=20",
}


@pytest.mark.parametrize("family,bad", [
    (family, bad) for family, (_, _, rejects) in FAMILIES.items()
    for bad in rejects])
def test_errors_name_their_own_family(family, bad):
    parse = FAMILIES[family][0]
    with pytest.raises(ConfigError) as exc:
        parse(bad)
    msg = str(exc.value)
    assert msg.startswith(f"{family} spec:")
    for other in FAMILIES.keys() - {family}:
        assert f"{other} spec" not in msg


def test_cli_cluster_error_names_cluster_family(capsys):
    assert cli.main(["check", "cluster_lease", "--budget", "1",
                     "--cluster", "loss:p=2"]) == 2
    assert capsys.readouterr().err.startswith(
        "--cluster: cluster spec: loss:p=2:")


@pytest.mark.parametrize("family", sorted(FULL_SPECS))
def test_comma_between_clauses_parses_like_semicolon(family):
    parse = FAMILIES[family][0]
    spec = FULL_SPECS[family]
    with_semicolons = parse(spec)
    with_commas = parse(spec.replace(";", ","))
    assert replace(with_commas, raw=spec) == with_semicolons
    assert with_semicolons != parse("")


@pytest.mark.parametrize("family", sorted(PARAM_AFTER_SEMICOLON))
def test_token_after_semicolon_must_name_a_clause(family):
    with pytest.raises(ConfigError, match=f"^{family} spec: unknown clause"):
        FAMILIES[family][0](PARAM_AFTER_SEMICOLON[family])


# -- the docs cannot drift ----------------------------------------------------

_FLAG_SPEC = re.compile(r'(--faults|--network|--traffic|--cluster)'
                        r'[\s\\]*"([^"$]*)"')


def _documented_specs() -> list[tuple[str, str, str]]:
    """``(flag, spec, where)`` for every spec string shown in README.md,
    DESIGN.md, the CI workflow and the CLI's docstring and help text."""
    found = []
    for name in ("README.md", "DESIGN.md", ".github/workflows/ci.yml"):
        text = (ROOT / name).read_text(encoding="utf-8")
        found += [(flag, spec, name)
                  for flag, spec in _FLAG_SPEC.findall(text)]
        found += [("--faults", spec, name)
                  for spec in re.findall(r'FUZZ_SPEC: "([^"]*)"', text)]
    doc = cli.__doc__
    found += [(flag, spec, "docstring") for flag, spec in
              _FLAG_SPEC.findall(doc)]
    flag = None
    for m in re.finditer(r'``(--\w+) SPEC``|``"([^"]+)"``', doc):
        if m.group(1):
            flag = m.group(1)
        else:
            found.append((flag, m.group(2), "docstring"))
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    for sub_parser in sub.choices.values():
        for action in sub_parser._actions:
            for opt in set(action.option_strings) & PARSER_BY_FLAG.keys():
                found += [(opt, spec, "help")
                          for spec in re.findall(r"'([^']*)'", action.help)]
    return found


def test_every_documented_spec_parses_under_its_family():
    found = _documented_specs()
    assert {flag for flag, _, _ in found} == PARSER_BY_FLAG.keys()
    assert {where for _, _, where in found} == {
        "README.md", "DESIGN.md", ".github/workflows/ci.yml", "docstring",
        "help"}
    for flag, spec, where in found:
        try:
            PARSER_BY_FLAG[flag](spec)
        except ConfigError as err:
            pytest.fail(f"{where}: {flag} {spec!r}: {err}")
