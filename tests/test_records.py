"""The package's value records derive from ``record.Record``, whose
methods are plain source: one positional constructor, equality and hash
by the field tuple where records serve as dict or set keys, the row
order of ``FamilyParams``, read-only fields, and no hidden state: a
derived value such as ``GrdParams.N`` is computed on each read."""

import copy
import pickle

import pytest

from bnslopes import tautpush
from bnslopes.cli import main
from bnslopes.divisors import FAMILIES, FamilyParams, slope_report
from bnslopes.families import CheckReport
from bnslopes.schubert import ChowClass, GrassmannianSpec, make_index
from bnslopes.tautpush import DivisorClass, GrdParams, TautCombo

KEYS = {
    "GrdParams": lambda: GrdParams(21, 6, 24),
    "GrassmannianSpec": lambda: GrassmannianSpec(2, 6),
    "TautCombo": lambda: TautCombo.of(2, -1, -8, 1),
    "FamilyParams": lambda: FamilyParams.hypersurface(4, 1, 2),
}

RECORDS = dict(
    KEYS,
    SchubertIndex=lambda: make_index(GrassmannianSpec(2, 6), (0, 1, 2)),
    ChowClass=lambda: ChowClass(GrassmannianSpec(2, 6), 3, {(0, 1, 2): 1}),
    DivisorClass=lambda: DivisorClass(1, 0, (2, 3)),
    Family=lambda: FAMILIES["gp"],
    SlopeReport=lambda: slope_report(FamilyParams.gp(1, 1)),
    CheckReport=lambda: CheckReport("pieri", {"g": 6}, "1", "1", True, ""),
)


@pytest.mark.parametrize("make", KEYS.values(), ids=KEYS)
def test_equal_records_are_one_key(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: "row"}[b] == "row"


def test_records_differ_by_any_field_and_from_plain_tuples():
    assert GrdParams(10, 4, 12) != GrdParams(21, 6, 24)
    assert GrassmannianSpec(2, 6) != GrassmannianSpec(2, 7)
    assert TautCombo.of(2, -1, -6, 1) != TautCombo.of(2, -1, -8, 1)
    assert FamilyParams("hypersurface", 4, 1, 2) != FamilyParams("hypersurface", 4, 1, 3)
    assert GrassmannianSpec(2, 6) != (2, 6)
    assert FamilyParams("gp", 1, 1, None) != ("gp", 1, 1, None)


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_rebuild_an_equal_record(name):
    # every record is rebuilt through its constructor; pickle is tried
    # on the keys only, since a Family holds lambdas
    record = RECORDS[name]()
    twins = [copy.copy(record), copy.deepcopy(record)]
    if name in KEYS:
        twins.append(pickle.loads(pickle.dumps(record)))
    for twin in twins:
        assert type(twin) is type(record) and twin == record


# every record but the three that validate: GrdParams, GrassmannianSpec
# and SchubertIndex
WITHOUT_INIT = (
    "TautCombo", "DivisorClass", "SlopeReport", "Family", "CheckReport", "ChowClass", "FamilyParams",
)


@pytest.mark.parametrize("name", WITHOUT_INIT)
def test_wrong_value_count_names_the_record_and_its_fields(name):
    record = RECORDS[name]()
    cls = type(record)
    assert "__init__" not in vars(cls)
    values = tuple(getattr(record, field) for field in cls._fields)
    assert cls(*values) == record
    for wrong in (values[:-1], values + (None,)):
        with pytest.raises(TypeError) as err:
            cls(*wrong)
        assert str(err.value) == (
            f"{name}({', '.join(cls._fields)}) takes {len(values)} values; got {len(wrong)}"
        )


def test_slope_report_reads_r_g_d_and_n_from_its_grd():
    report = slope_report(FamilyParams.gp(2, 3))
    fields = ("family", "s", "extra", "slope", "bound", "below_bound", "combo", "grd")
    assert type(report)._fields == type(report).__slots__ == fields
    grd = report.grd
    assert (report.r, report.g, report.d, report.N) == (grd.r, grd.g, grd.d, grd.N) == (2, 12, 10, 462)
    with pytest.raises(TypeError) as err:
        type(report)(*(getattr(report, name) for name in fields[:-1]))
    assert str(err.value) == f"SlopeReport({', '.join(fields)}) takes 8 values; got 7"


def test_computed_n_leaves_equality_and_hash_alone():
    params = GrdParams(21, 6, 24)
    params.N
    assert params == GrdParams(21, 6, 24) and hash(params) == hash(GrdParams(21, 6, 24))


def test_family_params_sort_by_family_r_s_extra():
    rows = [
        FamilyParams("syzygy", 4, 1, 0),
        FamilyParams("hypersurface", 4, 1, 3),
        FamilyParams("gp", 2, 1, None),
        FamilyParams("hypersurface", 4, 1, 2),
        FamilyParams("gp", 1, 3, None),
        FamilyParams("hypersurface", 3, 2, 3),
    ]
    assert [(p.family, p.r, p.s, p.extra) for p in sorted(rows)] == [
        ("gp", 1, 3, None),
        ("gp", 2, 1, None),
        ("hypersurface", 3, 2, 3),
        ("hypersurface", 4, 1, 2),
        ("hypersurface", 4, 1, 3),
        ("syzygy", 4, 1, 0),
    ]
    with pytest.raises(TypeError):
        FamilyParams("gp", 1, 1, None) < ("gp", 1, 1, None)


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
def test_fields_are_read_only(make):
    record = make()
    assert not hasattr(record, "__dict__")
    for name in type(record)._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra_attribute = 0


def test_repr_names_every_field():
    assert repr(GrdParams(10, 4, 12)) == "GrdParams(g=10, r=4, d=12)"
    assert repr(FamilyParams.gp(1, 2)) == "FamilyParams(family='gp', r=1, s=2, extra=None)"


def test_n_is_computed_on_each_read(monkeypatch):
    calls = []
    original = tautpush.castelnuovo_N

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(tautpush, "castelnuovo_N", counted)
    params = GrdParams(21, 6, 24)
    assert calls == []
    first, second = params.N, params.N
    assert first == second == original(21, 6, 24)
    assert calls == [(21, 6, 24)] * 2
    assert type(params).__slots__ == ("g", "r", "d")


def test_push_error_prints_the_params(capsys):
    assert main(["push", "--g", "0", "--r", "0", "--d", "0", "--class", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "bnslopes: error: need g >= 1 and r, d >= 0; got (g,r,d)=(0,0,0)\n"
