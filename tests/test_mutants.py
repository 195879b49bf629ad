"""Every mutant of ``mutants.py`` dies as its row states, and the rows cover every route."""

import sys

import pytest

from cosmopair import cli, fock, verify
from mutants import MUTANTS, ROUTES, UNKILLED, edited

KILLS = [(row, killer) for row in MUTANTS for killer in row.killers]


def clear_caches():
    """Empty every lru_cache of the cosmopair modules."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "cosmopair":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    """A cached builder can neither hide a mutant nor carry one into a later test."""
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("row, killer", KILLS, ids=[
    f"{row.name}-{killer.test.__name__}" + (f"[{killer.label}]" if killer.label else "")
    for row, killer in KILLS])
def test_each_killer_fails_only_under_its_mutant(row, killer, monkeypatch):
    killer.test(*killer.args)
    clear_caches()
    row.patch(monkeypatch)
    # Any other exception, a TypeError from a broken patch say, fails the row.
    with pytest.raises(killer.error, match=killer.match) as killed:
        killer.test(*killer.args)
    assert type(killed.value) is killer.error


@pytest.mark.parametrize("row", MUTANTS, ids=[row.name for row in MUTANTS])
def test_verify_fails_exactly_the_checks_of_each_mutant(row, monkeypatch, capsys):
    row.patch(monkeypatch)
    results = {r.name: r for r in verify.run_all(batch=16)}
    assert {name for name, r in results.items() if not r.passed} == row.verify_fails
    if row.residual:
        check, bound = row.residual
        assert results[check].residual > bound
    if row.cli:
        assert cli.main(["verify", "--batch", "2"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == len(row.verify_fails)
        assert all(any(line.startswith(f"FAIL  {name} ") for line in failed)
                   for name in row.verify_fails)


def test_every_route_and_every_verify_check_has_a_row():
    assert len({row.name for row in MUTANTS}) == len(MUTANTS)
    assert {row.route for row in MUTANTS} == set(ROUTES)
    assert all(row.killers or row.verify_fails for row in MUTANTS)
    checks = set(verify.CHECKS)
    killed = set().union(*(row.verify_fails for row in MUTANTS))
    assert killed <= checks
    assert checks - killed == set(UNKILLED)
    assert all(UNKILLED.values())


def test_an_edit_whose_old_text_left_the_source_fails_the_row(monkeypatch):
    with pytest.raises(AssertionError, match="not once"):
        edited(fock.require, "[~ok][1]", "[~ok][-1]")(monkeypatch)
