import gatecert

# wrappers that only tests used, and the hull routines that nothing in the
# package calls any more
REMOVED = (
    "adjoint",
    "build_qft_pair",
    "build_toffoli_pair",
    "convex_hull",
    "distance_origin_to_hull",
    "kron",
    "multiply",
    "symmetric_subspace_dim",
    "trace",
    "trace_of_square",
)


def test_all_has_no_duplicates():
    assert len(set(gatecert.__all__)) == len(gatecert.__all__)


def test_every_exported_name_resolves():
    for name in gatecert.__all__:
        assert getattr(gatecert, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in gatecert.__all__
        assert not hasattr(gatecert, name), name
