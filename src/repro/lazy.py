"""Imports deferred to first use, for processes that never need them.

The vetting daemon, its clients, the load generator and the service
pool workers each load only what they run, so two kinds of import wait
until they are used.

**Package re-exports.**

A package ``__init__`` that re-exports its submodules' names eagerly
loads every submodule on ``import package.anything``. Packages whose
light submodules are imported by processes that never analyze (the
vetting daemon, its clients, the load generator) declare their
re-exports through :func:`lazy_exports` instead (PEP 562 module
``__getattr__``)::

    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

A lazily re-exported name must never also be the name of one of the
package's submodules: importing the submodule binds it as a package
attribute, and the module would then shadow the re-exported object.

**Hashing.** ``import hashlib`` maps OpenSSL's libcrypto into the
process (~3.7 MB). Cache keys, job ids and version-chain names all
hash through :func:`sha256_hex`, which imports it on its first call.
A process that must map no OpenSSL blocks ``_hashlib`` before that
(the vetting daemon does): ``hashlib`` then uses the interpreter's
built-in SHA-256, with the same digests at about a quarter of the
speed. That is ~16 µs for a 6 KB source, nothing beside a vet, but it
would make a batch cache key (two sources and a payload) four times
dearer, so every other process keeps OpenSSL.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, str]):
    """The ``(__getattr__, __dir__)`` hooks for ``package``, resolving
    each name in ``exports`` from the module it maps to (and caching it
    in the package namespace, so each name resolves once)."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


def sha256_hex(text: str) -> str:
    """The hex SHA-256 digest of ``text``'s UTF-8 bytes."""
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()
