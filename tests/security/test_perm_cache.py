"""Correctness of the cross-user rule-path cache (ablation E18).

A resolver always caches ``$USER``-free selections per (document,
stamp); the uncached baseline is a *fresh* resolver, which shares
nothing with any other.
"""

import pytest

from repro.core import hospital_database
from repro.security import PermissionResolver, Privilege
from repro.xmltree import NodeKind

USERS = ["beaufort", "laporte", "richard", "robert", "franck"]


@pytest.fixture
def db():
    return hospital_database()


class TestCacheCorrectness:
    def test_cached_equals_uncached_for_all_users(self, db):
        warm = PermissionResolver()
        for user in USERS:
            cold = PermissionResolver()
            a = cold.resolve(db.document, db.policy, user)
            b = warm.resolve(db.document, db.policy, user)
            # Second cached run exercises cache hits.
            hits = warm.stats["path_cache_hits"]
            c = warm.resolve(db.document, db.policy, user)
            assert warm.stats["path_cache_hits"] > hits
            assert a.facts() == b.facts() == c.facts()

    def test_two_fresh_resolvers_share_nothing(self, db):
        first, second = PermissionResolver(), PermissionResolver()
        first.resolve(db.document, db.policy, "laporte")
        assert first.stats["path_evals"] > 0
        second.resolve(db.document, db.policy, "laporte")
        # Every evaluation was repeated: nothing leaked across.
        assert second.stats == first.stats
        assert first.engine is not second.engine

    def test_user_dependent_paths_never_cached(self, db):
        """Rule 5's $USER path must stay per-user even with caching."""
        warm = PermissionResolver()
        robert = warm.resolve(db.document, db.policy, "robert")
        franck = warm.resolve(db.document, db.policy, "franck")
        robert_reads = robert.nodes_with(Privilege.READ)
        franck_reads = franck.nodes_with(Privilege.READ)
        assert robert_reads != franck_reads

    def test_cache_invalidated_by_in_place_mutation(self, db):
        resolver = PermissionResolver()
        doc = db.document.copy()
        before = resolver.resolve(doc, db.policy, "laporte")
        doc.append_child(doc.root, NodeKind.ELEMENT, "newpatient")
        after = resolver.resolve(doc, db.policy, "laporte")
        assert len(after.nodes_with(Privilege.READ)) == len(
            before.nodes_with(Privilege.READ)
        ) + 1

    def test_cache_is_per_document_object(self, db):
        resolver = PermissionResolver()
        doc_a = db.document
        doc_b = db.document.copy()
        # Turn franck's <service> into a <diagnosis>: its text now falls
        # under the secretary's //diagnosis/* deny (rule 2), so the two
        # documents must resolve differently despite the shared cache.
        franck = doc_b.children(doc_b.root)[0]
        doc_b.relabel(doc_b.children(franck)[0], "diagnosis")
        a = resolver.resolve(doc_a, db.policy, "beaufort")
        b = resolver.resolve(doc_b, db.policy, "beaufort")
        assert len(b.nodes_with(Privilege.READ)) < len(
            a.nodes_with(Privilege.READ)
        )

    def test_mutation_stamp_monotonic(self, db):
        doc = db.document.copy()
        stamps = [doc.mutation_stamp]
        doc.append_child(doc.root, NodeKind.ELEMENT, "a")
        stamps.append(doc.mutation_stamp)
        doc.relabel(doc.children(doc.root)[-1], "b")
        stamps.append(doc.mutation_stamp)
        doc.remove_subtree(doc.children(doc.root)[-1])
        stamps.append(doc.mutation_stamp)
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)
