"""Tests for repro.core.worlds — the canonical configurations."""

import pytest

from repro.core.worlds import (
    ROOT_DELEGATION_TTL,
    build_base_world,
    build_cachetest_world,
    build_cl_world,
    build_controlled_world,
    build_ecs_cdn_world,
    build_googleco_world,
    build_hotset_world,
    build_nl_world,
    build_outage_world,
    build_push_world,
    build_uy_world,
)
from repro.dns.message import Message, Rcode
from repro.dns.name import Name
from repro.dns.rdtypes import RdataType


def direct_query(world, server_name, qname, qtype):
    from repro.net.topology import Region

    client = world.topology.endpoint_in_region(Region.EU, "test-client")
    query = Message.make_query(qname, qtype, recursion_desired=False)
    response, _ = world.network.exchange(
        client, world.address_of(server_name), query, 0.0
    )
    return response


class TestBaseWorld:
    def test_root_servers_serve_root(self):
        world = build_base_world()
        response = direct_query(world, "a.root-servers.net", ".", RdataType.NS)
        assert response.flags.aa
        assert len(world.hints) == 2


class TestClWorld:
    def test_table1_parent_ttls(self):
        world = build_cl_world()
        response = direct_query(world, "a.root-servers.net", "cl.", RdataType.NS)
        ns = [r for r in response.authority if r.rdtype == RdataType.NS]
        glue = [r for r in response.additional if r.rdtype == RdataType.A]
        assert ns[0].ttl == ROOT_DELEGATION_TTL
        assert glue[0].ttl == ROOT_DELEGATION_TTL

    def test_table1_child_ttls(self):
        world = build_cl_world()
        ns_answer = direct_query(world, "a.nic.cl", "cl.", RdataType.NS)
        a_answer = direct_query(world, "a.nic.cl", "a.nic.cl.", RdataType.A)
        assert ns_answer.answer[0].ttl == 3600
        assert a_answer.answer[0].ttl == 43200
        assert ns_answer.flags.aa and a_answer.flags.aa


class TestUyWorld:
    def test_initial_ttls(self):
        uy = build_uy_world()
        response = direct_query(uy.world, "a.nic.uy", "uy.", RdataType.NS)
        assert response.answer[0].ttl == 300

    def test_natural_experiment_change(self):
        uy = build_uy_world()
        uy.raise_ns_ttl(86400)
        response = direct_query(uy.world, "a.nic.uy", "uy.", RdataType.NS)
        assert response.answer[0].ttl == 86400
        assert uy.child_ns_ttl == 86400

    def test_parent_unchanged_by_child_change(self):
        uy = build_uy_world()
        uy.raise_ns_ttl()
        response = direct_query(uy.world, "a.root-servers.net", "uy.", RdataType.NS)
        assert response.authority[0].ttl == ROOT_DELEGATION_TTL


class TestGoogleCoWorld:
    def test_parent_ns_ttl_900(self):
        world = build_googleco_world()
        response = direct_query(world, "ns.cctld.co", "google.co.", RdataType.NS)
        assert response.is_referral()
        assert response.authority[0].ttl == 900

    def test_child_ns_ttl_345600(self):
        world = build_googleco_world()
        response = direct_query(world, "ns1.google.com", "google.co.", RdataType.NS)
        assert response.flags.aa
        assert response.answer[0].ttl == 345600

    def test_servers_out_of_bailiwick(self):
        world = build_googleco_world()
        response = direct_query(world, "ns.cctld.co", "google.co.", RdataType.NS)
        assert not response.additional  # no glue possible


class TestCachetestWorld:
    def test_in_bailiwick_glue_present(self):
        ct = build_cachetest_world(in_bailiwick=True)
        response = direct_query(
            ct.world, "ns1.cachetest.net", "x.sub.cachetest.net.", RdataType.AAAA
        )
        assert response.is_referral()
        assert any(r.name == Name("ns1.sub.cachetest.net.") for r in response.additional)

    def test_out_of_bailiwick_no_glue(self):
        ct = build_cachetest_world(in_bailiwick=False)
        response = direct_query(
            ct.world, "ns1.cachetest.net", "x.sub.cachetest.net.", RdataType.AAAA
        )
        assert response.is_referral()
        assert not response.additional

    def test_wildcard_answers_with_probe_ids(self):
        ct = build_cachetest_world(in_bailiwick=True)
        client_answer = ct.sub_zone_old.lookup("p77.sub.cachetest.net.", RdataType.AAAA)
        assert str(client_answer.rrsets[0].rdatas[0]) == ct.old_answer
        assert client_answer.rrsets[0].ttl == 60

    def test_renumber_changes_glue_only(self):
        ct = build_cachetest_world(in_bailiwick=True)
        ct.renumber()
        parent = ct.world.zone("cachetest.net.")
        glue = parent.get("ns1.sub.cachetest.net.", RdataType.A)
        assert str(glue.rdatas[0]) == ct.new_server.endpoint.address
        # Old VM still serves its original data.
        old = ct.sub_zone_old.get("ns1.sub.cachetest.net.", RdataType.A)
        assert str(old.rdatas[0]) == ct.old_server.endpoint.address

    def test_renumber_out_of_bailiwick_updates_com_glue(self):
        ct = build_cachetest_world(in_bailiwick=False)
        ct.renumber()
        com = ct.world.zone("com.")
        glue = com.get("ns1.zurrundedu.com.", RdataType.A)
        assert str(glue.rdatas[0]) == ct.new_server.endpoint.address

    def test_take_child_offline(self):
        from repro.net.transport import NetworkTimeout
        from repro.net.topology import Region

        ct = build_cachetest_world(in_bailiwick=False)
        ct.take_child_offline()
        client = ct.world.topology.endpoint_in_region(Region.EU)
        with pytest.raises(NetworkTimeout):
            ct.world.network.exchange(
                client,
                ct.old_server.endpoint.address,
                Message.make_query("sub.cachetest.net.", RdataType.NS),
                0.0,
                retries=0,
            )

    def test_old_and_new_answers_differ(self):
        ct = build_cachetest_world()
        assert ct.old_answer != ct.new_answer


class TestNlWorld:
    def test_four_servers_two_monitored(self):
        nl = build_nl_world(domain_count=20)
        assert len(nl.server_names) == 4
        assert nl.monitored == ["ns1.dns.nl", "ns3.dns.nl"]

    def test_glue_at_root_two_days(self):
        nl = build_nl_world(domain_count=10)
        response = direct_query(nl.world, "a.root-servers.net", "nl.", RdataType.NS)
        glue = [r for r in response.additional if r.rdtype == RdataType.A]
        assert glue and all(r.ttl == ROOT_DELEGATION_TTL for r in glue)

    def test_child_a_ttl_one_hour(self):
        nl = build_nl_world(domain_count=10)
        response = direct_query(nl.world, "ns1.dns.nl", "ns1.dns.nl.", RdataType.A)
        assert response.answer[0].ttl == 3600

    def test_out_of_bailiwick_server_resolvable(self):
        nl = build_nl_world(domain_count=10)
        response = direct_query(nl.world, "ns.isc.org", "sns-pb.isc.org.", RdataType.A)
        assert response.flags.aa and response.answer

    def test_content_domains_served(self):
        nl = build_nl_world(domain_count=10)
        response = direct_query(nl.world, "ns.hoster0.nl", "www.domain0.nl.", RdataType.A)
        assert response.flags.aa and response.answer


class TestControlledWorld:
    def test_anycast_has_45_sites(self):
        world = build_controlled_world()
        assert len(world.anycast.sites) == 45

    def test_ttl_configurations(self):
        world = build_controlled_world()
        assert world.zone_unicast_60.get(
            "*.ttl60.mapache-de-madrid.co.", RdataType.AAAA
        ).ttl == 60
        assert world.zone_unicast_86400.get(
            "*.ttl86400.mapache-de-madrid.co.", RdataType.AAAA
        ).ttl == 86400

    def test_unicast_answers(self):
        world = build_controlled_world()
        response = direct_query(
            world.world,
            "ns1-unicast.mapache-de-madrid.co",
            "p5.ttl60.mapache-de-madrid.co.",
            RdataType.AAAA,
        )
        assert response.flags.aa and response.answer[0].ttl == 60


#: Each single-zone testbed: builder, child origin, server and content name.
TESTBEDS = {
    "outage": (build_outage_world, "shop.example.",
               lambda bed: bed.server, lambda bed: "www.shop.example."),
    "hotset": (build_hotset_world, "hot.example.",
               lambda bed: bed.server, lambda bed: bed.qnames[0]),
    "ecs": (build_ecs_cdn_world, "cdn.example.",
            lambda bed: bed.cdn, lambda bed: bed.content_name),
    "push": (build_push_world, "pushed.example.",
             lambda bed: bed.server, lambda bed: bed.content_name),
}


@pytest.mark.parametrize("kind", sorted(TESTBEDS))
def test_single_zone_testbed_contract(kind):
    from repro.net.topology import Region
    from repro.resolver.recursive import RecursiveResolver

    builder, origin, server_of, content_of = TESTBEDS[kind]
    ttl = 1234
    testbed = builder(ttl, seed=3)
    world, server, content = testbed.world, server_of(testbed), content_of(testbed)
    ns_name = f"ns1.{origin}"

    assert world.servers[ns_name.rstrip(".")] is server
    assert world.address_of(ns_name.rstrip(".")) == server.endpoint.address

    # The child's NS, glue and content answer all carry the cell's TTL.
    for qname, qtype in ((origin, RdataType.NS), (ns_name, RdataType.A),
                         (content, RdataType.A)):
        response = direct_query(world, ns_name.rstrip("."), qname, qtype)
        assert response.flags.aa and response.answer
        assert all(rrset.ttl == ttl for rrset in response.answer), (qname, qtype)

    # The root delegates at its realistic 2-day TTL, glue included.
    referral = direct_query(world, "a.rootsrv.net", content, RdataType.A)
    ns = [r for r in referral.authority if r.rdtype == RdataType.NS]
    glue = [r for r in referral.additional if r.rdtype == RdataType.A]
    assert ns and all(r.ttl == ROOT_DELEGATION_TTL for r in ns)
    assert glue and all(r.ttl == ROOT_DELEGATION_TTL for r in glue)

    resolver = RecursiveResolver(
        endpoint=world.topology.endpoint_in_region(Region.EU, "res"),
        network=world.network,
        root_hints=world.hints,
    )
    outcome = resolver.resolve(content, RdataType.A, now=0.0)
    assert outcome.rcode == Rcode.NOERROR and outcome.answers
