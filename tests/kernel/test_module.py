"""Module hierarchy: naming, children, process declaration."""

import pytest

from repro.kernel import ElaborationError, Module, ns


class TestHierarchy:
    def test_full_names(self, sim):
        top = Module("top", sim=sim)
        mid = Module("mid", parent=top)
        leaf = Module("leaf", parent=mid)
        assert top.full_name == "top"
        assert mid.full_name == "top.mid"
        assert leaf.full_name == "top.mid.leaf"

    def test_children_in_order(self, sim):
        top = Module("top", sim=sim)
        names = ["b", "a", "c"]
        for name in names:
            Module(name, parent=top)
        assert [c.basename for c in top.children] == names

    def test_child_lookup(self, sim):
        top = Module("top", sim=sim)
        a = Module("a", parent=top)
        assert top.child("a") is a
        with pytest.raises(ElaborationError, match="no child"):
            top.child("missing")

    def test_duplicate_child_rejected(self, sim):
        top = Module("top", sim=sim)
        Module("a", parent=top)
        with pytest.raises(ElaborationError, match="already has a child"):
            Module("a", parent=top)

    def test_descendants_depth_first(self, sim):
        top = Module("top", sim=sim)
        a = Module("a", parent=top)
        Module("a1", parent=a)
        Module("b", parent=top)
        assert [m.basename for m in top.descendants()] == ["a", "a1", "b"]

    def test_orphan_module_rejected(self):
        with pytest.raises(ElaborationError, match="needs a parent"):
            Module("lost")

    def test_invalid_name_rejected(self, sim):
        with pytest.raises(ElaborationError):
            Module("", sim=sim)
        with pytest.raises(ElaborationError):
            Module("a.b", sim=sim)

    def test_child_inherits_sim(self, sim):
        top = Module("top", sim=sim)
        child = Module("c", parent=top)
        assert child.sim is sim


class TestProcessDeclaration:
    def test_thread_named_after_function(self, sim):
        class M(Module):
            def __init__(self, name, sim):
                super().__init__(name, sim=sim)
                self.process = self.add_thread(self.worker)

            def worker(self):
                yield ns(1)

        m = M("m", sim)
        assert m.process.name == "m.worker"

    def test_module_event_namespaced(self, sim):
        top = Module("top", sim=sim)
        ev = top.event("done")
        assert ev.name == "top.done"

    def test_daemon_flag_propagates(self, sim):
        class M(Module):
            def __init__(self, name, sim):
                super().__init__(name, sim=sim)
                self.p = self.add_thread(self.loop, daemon=True)

            def loop(self):
                while True:
                    yield ns(1)

        m = M("m", sim)
        assert m.p.daemon
