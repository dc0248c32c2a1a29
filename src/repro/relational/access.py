"""Access control: users, privileges, GRANT/REVOKE.

Because the graph overlay never copies data, graph queries inherit the
relational grants directly (paper §1: "Db2 Graph directly inherits
Db2's mature access control mechanisms").  A user who lacks SELECT on a
vertex table cannot see those vertices through the graph either — the
integration tests assert exactly that.
"""

from __future__ import annotations

import threading

from .errors import AccessDeniedError, DatabaseError

PRIVILEGES = ("SELECT", "INSERT", "UPDATE", "DELETE")


class AccessControl:
    def __init__(self, admin_user: str = "admin"):
        self.admin_user = admin_user
        self._grants: dict[tuple[str, str], set[str]] = {}
        self._lock = threading.Lock()

    def grant(self, privileges: list[str], table: str, user: str) -> None:
        expanded = self._expand(privileges)
        with self._lock:
            key = (user.lower(), table.lower())
            self._grants.setdefault(key, set()).update(expanded)

    def revoke(self, privileges: list[str], table: str, user: str) -> None:
        expanded = self._expand(privileges)
        with self._lock:
            key = (user.lower(), table.lower())
            granted = self._grants.get(key)
            if granted:
                granted -= expanded
                if not granted:
                    del self._grants[key]

    def check(self, user: str, privilege: str, table: str, owner: str | None = None) -> None:
        """Raise :class:`AccessDeniedError` unless ``user`` may perform
        ``privilege`` on ``table``.  Admin and the owner always may."""
        if user.lower() == self.admin_user.lower():
            return
        if owner is not None and user.lower() == owner.lower():
            return
        granted = self._grants.get((user.lower(), table.lower()), set())
        if privilege.upper() not in granted:
            raise AccessDeniedError(
                f"user {user!r} lacks {privilege.upper()} privilege on {table!r}"
            )

    def dump_grants(self) -> list[list]:
        """``[user, table, [privileges...]]`` rows for checkpointing."""
        with self._lock:
            return [
                [user, table, sorted(privs)]
                for (user, table), privs in self._grants.items()
            ]

    @staticmethod
    def _expand(privileges: list[str]) -> set[str]:
        expanded: set[str] = set()
        for priv in privileges:
            upper = priv.upper()
            if upper == "ALL":
                expanded.update(PRIVILEGES)
            elif upper in PRIVILEGES:
                expanded.add(upper)
            else:
                raise DatabaseError(f"unknown privilege {priv!r}")
        return expanded
