"""What the installed package promises at import time: every name an
``__all__`` declares resolves, and the ``py.typed`` marker ships."""

import os


def test_every_declared_export_exists_at_import_time():
    # The API-EXPORT-ALL rule checks static binding; this covers the
    # dynamic side (PEP 562 lazy modules, re-exports): every __all__
    # name in every submodule must resolve on the imported module.
    import importlib
    import pkgutil

    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name}"
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"


def test_py_typed_marker_ships_with_the_package():
    import repro

    marker = os.path.join(os.path.dirname(repro.__file__), "py.typed")
    assert os.path.exists(marker)
