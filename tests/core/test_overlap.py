"""Unit tests for the overlap trace transformation."""

import pytest

from repro.analysis.structure import trace_issues
from repro.apps.registry import APPLICATIONS, create_application
from repro.core.chunking import FixedCountChunking, FixedSizeChunking
from repro.core.mechanisms import OverlapMechanism
from repro.core.overlap import OverlapTransformer, chunk_tag
from repro.core.patterns import ComputationPattern
from repro.errors import TransformError
from repro.tracing.machine import TracingVirtualMachine
from repro.tracing.records import (
    AccessEvent,
    CpuBurst,
    RecvRecord,
    SendRecord,
    WaitRecord,
)
from repro.tracing.trace import RankTrace, Trace


def _blocking_pair_trace(size=4000, burst=1000.0):
    """Rank 0: compute (producing) then send; rank 1: recv then compute (consuming)."""
    sender = RankTrace(rank=0, records=[
        CpuBurst(instructions=burst),
        SendRecord(dst=1, size=size, tag=3, pair_seq=0, buffer="face",
                   production=[AccessEvent(burst_index=0, offset=burst, lo=0.0, hi=1.0)]),
    ])
    receiver = RankTrace(rank=1, records=[
        RecvRecord(src=0, size=size, tag=3, pair_seq=0, buffer="halo",
                   consumption=[AccessEvent(burst_index=1, offset=0.0, lo=0.0, hi=1.0)]),
        CpuBurst(instructions=burst),
    ])
    return Trace(ranks=[sender, receiver], metadata={"name": "pair"})


def _nonblocking_exchange_trace(size=4000, burst=1000.0):
    """Both ranks: compute, irecv+isend+waitall, compute."""
    ranks = []
    for rank, peer in ((0, 1), (1, 0)):
        ranks.append(RankTrace(rank=rank, records=[
            CpuBurst(instructions=burst),
            RecvRecord(src=peer, size=size, tag=1, pair_seq=0, blocking=False,
                       request=0, buffer="halo",
                       consumption=[AccessEvent(burst_index=4, offset=100.0,
                                                lo=0.0, hi=1.0)]),
            SendRecord(dst=peer, size=size, tag=1, pair_seq=0, blocking=False,
                       request=1, buffer="face",
                       production=[AccessEvent(burst_index=0, offset=burst,
                                               lo=0.0, hi=1.0)]),
            WaitRecord(requests=[0, 1]),
            CpuBurst(instructions=burst),
        ]))
    return Trace(ranks=ranks, metadata={"name": "exchange"})


def _transformer(pattern=ComputationPattern.IDEAL,
                 mechanism=OverlapMechanism.FULL, count=4):
    return OverlapTransformer(chunking=FixedCountChunking(count=count),
                              pattern=pattern, mechanism=mechanism)


class TestChunkTag:
    def test_deterministic_and_distinct(self):
        assert chunk_tag(3, 5, 2) == chunk_tag(3, 5, 2)
        tags = {chunk_tag(t, s, c) for t in range(3) for s in range(3) for c in range(3)}
        assert len(tags) == 27

    def test_limits_enforced(self):
        with pytest.raises(TransformError):
            chunk_tag(0, 0, 10**6)
        with pytest.raises(TransformError):
            chunk_tag(0, 10**7, 0)


class TestInvariants:
    @pytest.mark.parametrize("pattern", list(ComputationPattern))
    @pytest.mark.parametrize("trace_factory", [_blocking_pair_trace,
                                               _nonblocking_exchange_trace])
    def test_instructions_and_bytes_preserved(self, pattern, trace_factory):
        trace = trace_factory()
        overlapped = _transformer(pattern).transform(trace)
        for original, transformed in zip(trace, overlapped):
            assert transformed.total_instructions() == pytest.approx(
                original.total_instructions())
            assert transformed.bytes_sent() == original.bytes_sent()
            assert transformed.bytes_received() == original.bytes_received()

    @pytest.mark.parametrize("pattern", list(ComputationPattern))
    @pytest.mark.parametrize("trace_factory", [_blocking_pair_trace,
                                               _nonblocking_exchange_trace])
    def test_transformed_trace_still_matches(self, pattern, trace_factory):
        overlapped = _transformer(pattern).transform(trace_factory())
        assert trace_issues(overlapped) == []

    def test_metadata_records_variant(self):
        overlapped = _transformer().transform(_blocking_pair_trace())
        assert overlapped.metadata["pattern"] == "ideal"
        assert overlapped.metadata["mechanism"] == "full"
        assert "overlapped" in overlapped.metadata["variant"]

    def test_none_mechanism_returns_equivalent_trace(self):
        trace = _blocking_pair_trace()
        untouched = OverlapTransformer(
            mechanism=OverlapMechanism.NONE).transform(trace)
        assert untouched[0].records == trace[0].records
        assert untouched.metadata["variant"] == "original"


class TestSendSide:
    def test_blocking_send_replaced_by_chunk_isends_and_wait(self):
        overlapped = _transformer().transform(_blocking_pair_trace())
        sender = overlapped[0]
        chunk_sends = [r for r in sender.sends() if not r.blocking]
        assert len(chunk_sends) == 4
        assert len(sender.waits()) == 1
        assert set(sender.waits()[0].requests) == {r.request for r in chunk_sends}
        # No blocking send survives.
        assert all(not r.blocking for r in sender.sends())

    def test_ideal_pattern_splits_preceding_burst(self):
        overlapped = _transformer().transform(_blocking_pair_trace(burst=1000.0))
        sender = overlapped[0]
        bursts = sender.bursts()
        assert len(bursts) == 4
        assert [b.instructions for b in bursts] == pytest.approx([250.0] * 4)
        # Records alternate burst / isend.
        kinds = [type(r).__name__ for r in sender.records]
        assert kinds.count("SendRecord") == 4

    def test_real_pattern_with_late_production_keeps_sends_at_end(self):
        overlapped = _transformer(ComputationPattern.REAL).transform(
            _blocking_pair_trace(burst=1000.0))
        sender = overlapped[0]
        # Production is at the very end of the burst, so the burst is not split.
        assert len(sender.bursts()) == 1
        assert sender.bursts()[0].instructions == pytest.approx(1000.0)

    def test_early_send_only_keeps_receive_waits_at_call(self):
        overlapped = _transformer(
            mechanism=OverlapMechanism.EARLY_SEND).transform(_blocking_pair_trace())
        receiver = overlapped[1]
        # The message is still chunked (the sender injects early partial
        # sends) but every partial receive is waited for at the original
        # receive call: the consuming burst is not split.
        assert len(receiver.recvs()) == 4
        assert len(receiver.bursts()) == 1
        assert len(receiver.waits()) == 1
        assert len(receiver.waits()[0].requests) == 4

    def test_single_chunk_messages_not_transformed(self):
        overlapped = _transformer(count=1).transform(_blocking_pair_trace())
        assert overlapped[0].records == _blocking_pair_trace()[0].records


class TestReceiveSide:
    def test_blocking_recv_replaced_by_chunk_irecvs(self):
        overlapped = _transformer().transform(_blocking_pair_trace())
        receiver = overlapped[1]
        chunk_recvs = [r for r in receiver.recvs() if not r.blocking]
        assert len(chunk_recvs) == 4
        # Ideal consumption: chunk 0 needed immediately -> one wait at offset 0,
        # the rest spread through the burst.
        assert len(receiver.waits()) == 4

    def test_late_receive_only_keeps_sends_at_call(self):
        overlapped = _transformer(
            mechanism=OverlapMechanism.LATE_RECEIVE).transform(_blocking_pair_trace())
        sender = overlapped[0]
        # The message is still chunked (the receiver defers its waits) but
        # every partial send stays at the original send call: the producing
        # burst is not split.
        assert len(sender.sends()) == 4
        assert len(sender.bursts()) == 1
        assert len(sender.waits()) == 1

    def test_nonblocking_exchange_rewrites_waitall(self):
        overlapped = _transformer().transform(_nonblocking_exchange_trace())
        rank0 = overlapped[0]
        # The original waitall must not reference the replaced requests 0/1.
        for wait in rank0.waits():
            assert 0 not in wait.requests or len(wait.requests) > 1
        assert trace_issues(overlapped) == []

    def test_consumption_waits_split_following_burst(self):
        overlapped = _transformer().transform(_nonblocking_exchange_trace())
        rank0 = overlapped[0]
        # The trailing burst (originally one record) is now split by the
        # injected chunk waits.
        assert len(rank0.bursts()) > 2


class TestTagConsistency:
    def test_chunk_tags_match_across_ranks(self):
        overlapped = _transformer().transform(_nonblocking_exchange_trace())
        sends = {(0, r.tag): r.size for r in overlapped[0].sends()}
        recvs = {(0, r.tag): r.size for r in overlapped[1].recvs()}
        assert sends == recvs


# -- goldens -------------------------------------------------------------------

#: ``Trace.digest()`` of every overlapped variant of the registered apps at 4
#: ranks, per (app, chunking) and ``pattern/mechanism``.  Cell keys address a
#: variant by its derivation (pattern, mechanism, chunking), not its content,
#: so a transform change that moved one record would be served stale from
#: every existing result store: a change here needs a ``STORE_FORMAT`` bump.
OVERLAP_GOLDENS = {
    ("allreduce-ring", "default"): {
        "real/full": "9310f2f4a9b0ee1fcc7c54e3a2a6e0ba26b8e54408da445be9c93531635fba58",
        "real/early-send": "9310f2f4a9b0ee1fcc7c54e3a2a6e0ba26b8e54408da445be9c93531635fba58",
        "real/late-receive": "9310f2f4a9b0ee1fcc7c54e3a2a6e0ba26b8e54408da445be9c93531635fba58",
        "ideal/full": "9310f2f4a9b0ee1fcc7c54e3a2a6e0ba26b8e54408da445be9c93531635fba58",
        "ideal/early-send": "9310f2f4a9b0ee1fcc7c54e3a2a6e0ba26b8e54408da445be9c93531635fba58",
        "ideal/late-receive": "9310f2f4a9b0ee1fcc7c54e3a2a6e0ba26b8e54408da445be9c93531635fba58",
    },
    ("allreduce-ring", "count=4"): {
        "real/full": "1dd54e3cc593c8afb05e63a3f2370d41a3f02013dea297261bdce36df16efd18",
        "real/early-send": "569eff27d40e651a9f6adab11f824cb02b216d89097cc07a4b7ad1a3ff7347d8",
        "real/late-receive": "2b8465498c9da74fbcfe51620ab94b8595aae4ad32c4d22a14c4ccf13d930d71",
        "ideal/full": "c9275844b3ca0fd6bc6b5f3f3e2f1f07f74f97dfb99d27b0a05e5ba731ffe050",
        "ideal/early-send": "e0cadfbbea8c6b0fa70ca4fe40ab3f8dcf8378423bc3b09ac794a4bc917eb869",
        "ideal/late-receive": "93d8db945d57504a2ac945ce001ec6a6456dcae417fb39d6f0119cf0b0c8dccc",
    },
    ("alya", "default"): {
        "real/full": "da0a0309bd4ae1e51d20207ff4af1739c373c73ab6abcff328ee212e60276b54",
        "real/early-send": "73fd203489aa0e48b74c90bb5fcd13fb32d357e6ed08da555f0d6e45d14c193f",
        "real/late-receive": "fb59d9309b26ebafc6f1100027fba8c0cc789d37631c7de97443244bc59a62bf",
        "ideal/full": "418932c9fd1034c2299af7d6231fb3a9d79231d9508e51cf4d6a60f3ca297fec",
        "ideal/early-send": "3c55848693589ac58f466a5ac9672b91b8143d5dda87103729e51484d4e7de8a",
        "ideal/late-receive": "c7ee4d8f1ccd03f72cb0620a901acc0e5998afac8f0ac11333b1fa90883d735f",
    },
    ("alya", "count=4"): {
        "real/full": "592b9f36c9711f73272e866f2f5bba4d0226b825312988a55eca25cd77ec6fba",
        "real/early-send": "fb42a6acd4f96b49b6d1fced34ef77f4ed9400ed6e270db1c0f904b882de18de",
        "real/late-receive": "9531b6ee6df85b1ca73636a43cef6a44f7f2fe97decaa0c21cf822a5c9d81ac9",
        "ideal/full": "62be9f0b60ef28298a8d5b4af6abf0eb3082b87013dee1b1935a221a59a274f4",
        "ideal/early-send": "4abcfe06980ce2d3ede9710267d52e6fd575c252a77d6640ef430baabdd41b20",
        "ideal/late-receive": "c2cd1a8f57d07f784ba699514ed0ae446e357f1b20ef4b305f75e7b8929477fe",
    },
    ("nas-bt", "default"): {
        "real/full": "f1514b4d05a038d3505b09c3a2b305ffd3eeaf0ad50598a9796b98da26c37387",
        "real/early-send": "bdb83695e6aea04fb69899ee3b991f09befab68d09a9fc3b62533c1c0c1df6f2",
        "real/late-receive": "05740558c3d519432018c75ad5a7929989c67e197d227419b7eddcd83909a5e1",
        "ideal/full": "d2b93ffec8498a9046a0293cef52695e91c3f6a4eb4382384975f889bd8a667d",
        "ideal/early-send": "da3901628d028e93df5a04071272a2879eb1f67857d2fb38145b43be74af9629",
        "ideal/late-receive": "3cc7333c3ec4a6e67ceb4e54bae8764e3a826afc1d968c4a44577c8b98a12392",
    },
    ("nas-bt", "count=4"): {
        "real/full": "31c3c95f33eb46a8646b6b498abbe77ee9ced172baec0bc4059230cca1aefdd4",
        "real/early-send": "cf962c390da68af79bb09d35ba4d5a0d9584285904f1df0eec29ad2a2a225ad3",
        "real/late-receive": "17926de62c8fd358ac122c4fe93d019e383dc816faf92937637e801e5f79e31a",
        "ideal/full": "5479ab3669d87dc31242c1a829d830846167f40c87e4af1f7f94df69b0f5358d",
        "ideal/early-send": "9b99f0b7aa51772d3ce9f2e9dad34d0d53d5fcedd7de5145374549f9e4b22d8f",
        "ideal/late-receive": "e2b1214b7bde2bb97ccc9a50e050ea70de70489fe1de97afd809849d60c34733",
    },
    ("nas-cg", "default"): {
        "real/full": "7da7013cd08e0c86a65deed6714b6638c482533d9e4ffdda241e4be69a76ef1d",
        "real/early-send": "25045b2e55bc10660cd86e6cf5c4426af3f2b8f7fb6535f4dbf2afd3b47de196",
        "real/late-receive": "d6ae5a6def9dff9af44c1f67c67b407448ddfc99ba7f476ff8d7146a5d805474",
        "ideal/full": "02ca715bfe9b9d61c049131932f4eed2439b01b3c6daf8cf500250376e62e629",
        "ideal/early-send": "2fe3fb1a09150a26dad5b553f5bb55c27385197d1860d6389363e2d8ad4a4cfb",
        "ideal/late-receive": "88ff680d4b3619f2bf4e56b2ad6a4914643937a0211669e121fb64df61c68445",
    },
    ("nas-cg", "count=4"): {
        "real/full": "f0614df632e932d17a6b8ada55cb8896342bdec307297766264931b16c72d393",
        "real/early-send": "c9125d5909407fd8a8f29727364c2de7a155141ee12c8500ea64bd5ea61573ff",
        "real/late-receive": "8c29927a270b31047bfef9116bf0e2eb7c3c8c8191f0bcbe2385d56793809dae",
        "ideal/full": "a94192e7065397a2c08edda75fb33395ce1aa46aae62c2e64798e9e21d3c2351",
        "ideal/early-send": "3e21a6a1518317a067a8fb50062bee59a435a0259e1d9755df30f567599fb354",
        "ideal/late-receive": "b78833cb85a1a9a25fe6646ed9ed9a3fa2c607dc96e2efee904db91457406288",
    },
    ("pop", "default"): {
        "real/full": "e1544e018f3ab8691cd32420cee76f8cdf8f8eb00ae58e97c21d8c3d55478b1b",
        "real/early-send": "e1544e018f3ab8691cd32420cee76f8cdf8f8eb00ae58e97c21d8c3d55478b1b",
        "real/late-receive": "a336153a9f2c2c2889e82a40e9e605e0bb2242b08ac1885cfc29282bcfaa48aa",
        "ideal/full": "b2c125098a1960d7e853b035d3f659fdfca8a35c0bc12e2b7960acaebd9f095f",
        "ideal/early-send": "815da24fcf4c1a8b20501ccd11eec4ecdced1c3a46254aad16aba038dd162e5a",
        "ideal/late-receive": "b41cb9fb5b2139cdca7afd85d3be3bac54cf16e424b805e15b21cf304a9db72b",
    },
    ("pop", "count=4"): {
        "real/full": "ada6867d75c9a17f9621c122337047b0421f7d669be01abb3a1b5f5066a52733",
        "real/early-send": "caf26f31620aeca5548055ccdb7f08dc8861bd666c0776975bafbf397eccc7d9",
        "real/late-receive": "33a10a3f65a90cf412acdde7665d926718384e6249a4be95753adb428d9cbcd6",
        "ideal/full": "d33da56702ff6a045ad37dfde25141da5cbc8c56abfa204928f0f7f12a1d45d2",
        "ideal/early-send": "447581c0d622414777ee831b2e0c9f965676fc81aa75a44934a3bba05855b7f4",
        "ideal/late-receive": "9a61a9dbb8780e099b6a6024f3e416f0616cc2fcc33d1ff97c23994c96305fe8",
    },
    ("random-exchange", "default"): {
        "real/full": "fc0e868ad57accad3299376a98ebc83d3863af151c49a8b1fe77ddaca1edcaef",
        "real/early-send": "fc0e868ad57accad3299376a98ebc83d3863af151c49a8b1fe77ddaca1edcaef",
        "real/late-receive": "0471058af0d8bef3a3e32562f28122262301c34cfee3ea362c2b863a3d3afc79",
        "ideal/full": "cb2083128289a3e2ce04c075f21928da485b1aae2bbdc14c76ed24f671d91a3b",
        "ideal/early-send": "25f2fd2ccf08fcd53eb5e57704e08f3ccba33abbd80134f538efaf59794ecf35",
        "ideal/late-receive": "cfca889d699653adf2019c8b2cd751e8e70bac314442d9cbdcf2c8effdd2b6ef",
    },
    ("random-exchange", "count=4"): {
        "real/full": "16df5eb64dcf5fd252052c6502d1b2dabd2a5cc350c75d94df2917d1ce086f8d",
        "real/early-send": "16df5eb64dcf5fd252052c6502d1b2dabd2a5cc350c75d94df2917d1ce086f8d",
        "real/late-receive": "1467fb42f3b63c009da61b1f5b3e59050963282f37ac30fa1e6dd9f503186958",
        "ideal/full": "539d4e725ea79b287c8d46b9b58c9380a778811e0d517f657570f516a3e71c55",
        "ideal/early-send": "aae489449c2d6f94edea821a0da7ea96e0fa20b57297baf0285bd51e71f6c9a8",
        "ideal/late-receive": "7632585f54364373936870c2b3912dd46f30b8d7032fdeec84282fedc4adff96",
    },
    ("sancho-loop", "default"): {
        "real/full": "051d44992ffd98d25d6ea471639a9a206e89252cb33e2190babd660e28a238c3",
        "real/early-send": "40ad784f35e18696798f3964502bf5862c2018a11f10d26c6325b6e16dc3495f",
        "real/late-receive": "209549a90f65798f957716344694114168b4310ac748f52b77f58378477247b6",
        "ideal/full": "d9dc5055ecc9041cd17c69416bcb985c5390fd57ad825f04da544d2f6385cdf5",
        "ideal/early-send": "0f2b69f7fafece89e6e8227056f1107dabb9de092c88046bf7ca8d9e9e0e8090",
        "ideal/late-receive": "d0e4ee8eaffdcd73a68639ec33090245b8c75b0f552833cf0601220aa52bc7c1",
    },
    ("sancho-loop", "count=4"): {
        "real/full": "fa8359f2b84ef14efca24b044d9bb1a6a0b67ea93e0edbaff8063d240dfd5a6a",
        "real/early-send": "39612addc06c4cd6666e6253f1800180f2a65590a2a2bbb323af139539c38627",
        "real/late-receive": "297674b98cd7e6902f29bcafe1c83cfbc2c3c3b71729dccc374ab032ec1743cd",
        "ideal/full": "8fde4f8aa07e5adc213261c0a1bae08a50557e9bf2ecafa02e0a04486228b8dc",
        "ideal/early-send": "b6d7126535761ddf8bbd626c07b28f889595a0b37369419e35c0c0f4e4811715",
        "ideal/late-receive": "ad4711a79401b7612e1900092a8995e8976e6e9a86c465e071b31376faba6fa2",
    },
    ("specfem", "default"): {
        "real/full": "7ea5c1ba84d993fe5dbbe89764c348bffff03cff05af17e015083dc5856ec0e6",
        "real/early-send": "bde77f877cbe89a98c495e482016dda776e303c6eba086f444c857b0b6dfec4b",
        "real/late-receive": "c0f363748ef0217ce7a69498e85f971d92f7c71efa37f338d58f0abc369ed083",
        "ideal/full": "46e7edc02c5978aa69298258b4f5f216ea59d2f563fc45e0ea04db2041ac7ee0",
        "ideal/early-send": "556f96323c57469506f5f96e3b67bb4fe18aafda3a2b07b64c7a4982f32b3e1c",
        "ideal/late-receive": "8ab2123d52bce27cb090d31e5891ac13176ec5ac22c9e646dea1f363fe520661",
    },
    ("specfem", "count=4"): {
        "real/full": "e343620650a099ccd312901449990c788c658d926554bd448ec38a5fb8ed8534",
        "real/early-send": "0712ed1efde637447d03ff344a8233e38135543463c03fc2f60fd2e7c9182616",
        "real/late-receive": "b394943807e76087bb95013b3f74fa709b690d400e5057bd6085e28e51001460",
        "ideal/full": "afd87fdbdfe044ad55cbfba5602542c2f343c70ce27d6df4ba9fae8ef61350fb",
        "ideal/early-send": "f0a43e054ae9f6fab8dcdbb79b65db76fe3383ce43f58981b205587f9416f764",
        "ideal/late-receive": "6dadd4cd182a830d22f82f13423d001428588f527919ec5cdfe1241971a23b05",
    },
    ("sweep3d", "default"): {
        "real/full": "852719e93456f5744f4586b907cb75ad78d62e3160759f0c5656d1de761dee7f",
        "real/early-send": "c67bac4665eb04394f0ca464a1f5150b0580e880687208ea586133936f570be3",
        "real/late-receive": "4860d586ae39fd884f8fa90f966a025e6c7aaa45653f8f04b190481d08e603c3",
        "ideal/full": "1c2e1112c47945122ed813bfcda11e1282ca00338b7b8b202da92b469a498cff",
        "ideal/early-send": "32e0d54c1f6cc674f3c27aaa4fe1be580f1f43424022e8372694c4ba09f3a247",
        "ideal/late-receive": "093b2583f340bdf14df68ffcef22f73f736118c83f214b4c16e9662f56cf1f13",
    },
    ("sweep3d", "count=4"): {
        "real/full": "852719e93456f5744f4586b907cb75ad78d62e3160759f0c5656d1de761dee7f",
        "real/early-send": "c67bac4665eb04394f0ca464a1f5150b0580e880687208ea586133936f570be3",
        "real/late-receive": "4860d586ae39fd884f8fa90f966a025e6c7aaa45653f8f04b190481d08e603c3",
        "ideal/full": "1c2e1112c47945122ed813bfcda11e1282ca00338b7b8b202da92b469a498cff",
        "ideal/early-send": "32e0d54c1f6cc674f3c27aaa4fe1be580f1f43424022e8372694c4ba09f3a247",
        "ideal/late-receive": "093b2583f340bdf14df68ffcef22f73f736118c83f214b4c16e9662f56cf1f13",
    },
}

CHUNKINGS = {
    "default": FixedSizeChunking,
    "count=4": lambda: FixedCountChunking(count=4),
}


@pytest.fixture(scope="module")
def app_traces():
    machine = TracingVirtualMachine()
    return {name: machine.trace(create_application(name, num_ranks=4))
            for name in sorted(APPLICATIONS)}


class TestOverlapGoldens:
    def test_every_registered_app_and_chunking_is_pinned(self):
        assert set(OVERLAP_GOLDENS) == {(app, chunking)
                                        for app in APPLICATIONS
                                        for chunking in CHUNKINGS}

    @pytest.mark.parametrize("app, chunking", sorted(OVERLAP_GOLDENS))
    def test_overlapped_variants_are_unchanged(self, app_traces, app,
                                               chunking):
        digests = {}
        for pattern in ("real", "ideal"):
            for mechanism in ("full", "early-send", "late-receive"):
                transformer = OverlapTransformer(
                    chunking=CHUNKINGS[chunking](),
                    pattern=ComputationPattern.from_label(pattern),
                    mechanism=OverlapMechanism.from_label(mechanism))
                overlapped = transformer.transform(app_traces[app])
                digests[f"{pattern}/{mechanism}"] = overlapped.digest()
        assert digests == OVERLAP_GOLDENS[(app, chunking)]
