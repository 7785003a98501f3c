"""Shared fixtures: a small academic database and the full benchmarks."""

from __future__ import annotations

import pytest

from repro.core import QueryLog, Templar
from repro.db import Catalog, Column, ColumnType, Database, ForeignKey, TableSchema
from repro.embedding import CompositeModel, Lexicon

_INT = ColumnType.INTEGER
_TEXT = ColumnType.TEXT


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "slow: a long-running test (deselect with -m 'not slow')"
    )


def build_mini_db() -> Database:
    """A miniature MAS-like schema used across unit tests."""
    db = Database("mini", Catalog())
    db.create_table(
        TableSchema(
            "publication",
            [
                Column("pid", _INT),
                Column("title", _TEXT, display=True, searchable=True),
                Column("year", _INT),
                Column("jid", _INT),
            ],
            primary_key="pid",
        )
    )
    db.create_table(
        TableSchema(
            "journal",
            [
                Column("jid", _INT),
                Column("name", _TEXT, display=True, searchable=True),
            ],
            primary_key="jid",
        )
    )
    db.create_table(
        TableSchema(
            "author",
            [
                Column("aid", _INT),
                Column("name", _TEXT, display=True, searchable=True),
            ],
            primary_key="aid",
        )
    )
    db.create_table(
        TableSchema("writes", [Column("aid", _INT), Column("pid", _INT)])
    )
    db.add_foreign_key(ForeignKey("publication", "jid", "journal", "jid"))
    db.add_foreign_key(ForeignKey("writes", "aid", "author", "aid"))
    db.add_foreign_key(ForeignKey("writes", "pid", "publication", "pid"))
    db.insert_many("journal", [(1, "TKDE"), (2, "TMC")])
    db.insert_many(
        "publication",
        [
            (1, "Scalable Query Processing", 2004, 1),
            (2, "Mobile Network Survey", 1999, 2),
            (3, "Streaming Joins Revisited", 2006, 1),
            (4, "Adaptive Indexing", 2010, 1),
        ],
    )
    db.insert_many("author", [(1, "John Smith"), (2, "Jane Doe")])
    db.insert_many("writes", [(1, 1), (2, 1), (1, 3), (2, 4)])
    return db


def build_mini_lexicon() -> Lexicon:
    lexicon = Lexicon()
    lexicon.add("paper", "journal", 0.59)
    lexicon.add("paper", "publication", 0.585)
    lexicon.add("paper", "title", 0.55)
    lexicon.add("after", "year", 0.70)
    return lexicon


def build_mini_log() -> QueryLog:
    log = QueryLog()
    for _ in range(6):
        log.add("SELECT p.title FROM publication p WHERE p.year > 2000")
    for _ in range(4):
        log.add(
            "SELECT p.title FROM publication p, journal j "
            "WHERE j.name = 'TKDE' AND p.jid = j.jid"
        )
    for _ in range(3):
        log.add(
            "SELECT p.title FROM publication p, writes w, author a "
            "WHERE a.name = 'John Smith' AND w.aid = a.aid AND w.pid = p.pid"
        )
    for _ in range(2):
        log.add(
            "SELECT COUNT(p.title) FROM publication p, writes w, author a "
            "WHERE a.name = 'Jane Doe' AND w.aid = a.aid AND w.pid = p.pid"
        )
    for _ in range(2):
        log.add("SELECT p.title FROM publication p ORDER BY p.year DESC")
    for _ in range(2):
        log.add("SELECT j.name FROM journal j")
    return log


@pytest.fixture()
def mini_db() -> Database:
    return build_mini_db()


@pytest.fixture()
def mini_lexicon() -> Lexicon:
    return build_mini_lexicon()


@pytest.fixture()
def mini_model(mini_lexicon) -> CompositeModel:
    return CompositeModel(mini_lexicon)


@pytest.fixture()
def mini_log() -> QueryLog:
    return build_mini_log()


@pytest.fixture()
def mini_templar(mini_db, mini_model, mini_log) -> Templar:
    return Templar(mini_db, mini_model, mini_log)


# Benchmark datasets are expensive; build once per test session.


@pytest.fixture(scope="session")
def mas_dataset():
    from repro.datasets import load_dataset

    return load_dataset("mas")


@pytest.fixture(scope="session")
def yelp_dataset():
    from repro.datasets import load_dataset

    return load_dataset("yelp")


@pytest.fixture(scope="session")
def imdb_dataset():
    from repro.datasets import load_dataset

    return load_dataset("imdb")
