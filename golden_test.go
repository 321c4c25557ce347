package taglessdram_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"taglessdram"
)

// fingerprint flattens every paper-relevant metric of a Result into one
// string. Two runs are considered byte-identical exactly when their
// fingerprints match. Throughput denominators (References, KernelEvents)
// are deliberately excluded: they are wall-clock reporting aids, not
// simulated metrics.
func fingerprint(r *taglessdram.Result) string {
	return fmt.Sprintf("cyc=%d in=%d ipc=%v pc=%v l3=%d,%d,%v,%v tlb=%d,%d,%v nc=%d e=%v,%v,%v,%v edp=%v row=%v,%v b=%d,%d ctrl=%+v km=%v kc=%v sram=%v",
		r.Cycles, r.Instructions, r.IPC, r.PerCoreIPC,
		r.L3Accesses, r.L3Hits, r.L3HitRate, r.AvgL3Latency,
		r.TLBLookups, r.TLBMisses, r.TLBMissRate, r.NCAccesses,
		r.Energy.CoreJ, r.Energy.InPkgJ, r.Energy.OffPkgJ, r.Energy.TagJ,
		r.EDPJs, r.InPkgRowHitRate, r.OffPkgRowHitRate, r.InPkgBytes, r.OffPkgBytes,
		r.Ctrl, r.MissKindMean, r.MissKindCount, r.SRAMHitRate)
}

// goldenOptions is the fixed configuration the golden fingerprints were
// captured under: default 64× scale, 200k+200k instructions, seed 1.
func goldenOptions() taglessdram.Options {
	o := taglessdram.DefaultOptions()
	o.Warmup, o.Measure = 200_000, 200_000
	return o
}

// golden maps workload/design to the expected fingerprint. These values
// pin the simulator's exact behavior: any change to replacement order,
// event ordering, RNG consumption, or latency accounting shows up here.
// They were captured before the hot-path optimization work (arena page
// table, pooled events, SoA caches, scheduler heap) and have survived it
// unchanged — that is the PR's determinism invariant.
var golden = map[string]string{
	"sphinx3/NoL3":        `cyc=209221 in=800120 ipc=3.8242815013789246 pc=[0.9800395876611924 0.9560703753447312 0.959031523432818 1.0176432881228314] l3=6332,0,0,219.6822488945036 tlb=28920,216,0.007468879668049793 nc=0 e=0.0013948066666666665,0,0.00011447047199999999,0 edp=1.0525749074299287e-07 row=0,0.9214296961108487 b=0,405248 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"sphinx3/BI":          `cyc=187355 in=800120 ipc=4.270609271169705 pc=[1.1100567153908478 1.0860394281774106 1.0676523177924262 1.161256988267258] l3=6332,784,0.12381554011370816,185.70467466835075 tlb=28920,216,0.007468879668049793 nc=0 e=0.0012490333333333335,2.9290112000000002e-06,9.9634008e-05,0 edp=8.440944487629422e-08 row=0.9693877551020408,0.9294054248248608 b=50176,355072 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"sphinx3/SRAM":        `cyc=272704 in=800120 ipc=2.93402370335602 pc=[0.7543263556039929 0.7480805262705177 0.733505925839005 0.7716551835878127] l3=6332,6116,0.9658875552747946,283.55337965887543 tlb=28920,216,0.007468879668049793 nc=0 e=0.0018180266666666667,8.2679392e-05,0.00023681030399999998,1.15272e-07 edp=1.9431356576671288e-07 row=0.8179527559055119,0.5 b=1276160,884736 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0.9658875552747946`,
	"sphinx3/cTLB":        `cyc=247241 in=800120 ipc=3.2361946440922016 pc=[0.8398622832430617 0.8144975100473559 0.8090486610230504 0.8509923209461615] l3=6332,6332,1,235.68145925457995 tlb=28920,216,0.007468879668049793 nc=0 e=0.0016482733333333334,6.972218079999999e-05,0.000247349376,0 edp=1.6197127866048515e-07 row=0.96269224912441,0.5 b=1289984,912384 ctrl={Walks:216 NonCacheable:0 VictimHits:0 ColdFills:216 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 707.5324074074077 0] kc=[0 0 216 0] sram=0`,
	"sphinx3/Ideal":       `cyc=114304 in=800120 ipc=6.999930011198209 pc=[1.7862373196170882 1.7712585561094827 1.7499825027995521 1.8440533589003716] l3=6332,6332,1,86.48357548957688 tlb=28920,216,0.007468879668049793 nc=0 e=0.0007620266666666667,2.4438697600000002e-05,0,0 edp=2.9965378999045694e-08 row=0.9612659423712802,0 b=405248,0 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"GemsFDTD/NoL3":       `cyc=381907 in=800000 ipc=2.094750816298209 pc=[0.5436348513430499 0.5502683934088852 0.5238523050811055 0.5236877040745522] l3=10452,0,0,309.2589934940692 tlb=32000,369,0.01153125 nc=0 e=0.0025460466666666665,0,0.000186976992,0 edp=3.479202888034702e-07 row=0,0.9338811389260463 b=0,668928 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"GemsFDTD/BI":         `cyc=349618 in=800000 ipc=2.2882117053469786 pc=[0.6015869864703087 0.6126212224243872 0.585269355589176 0.5720529263367446] l3=10452,1237,0.11835055491771909,278.3044393417533 tlb=32000,369,0.01153125 nc=0 e=0.002330786666666667,4.6684016e-06,0.00016423164,0 edp=2.9131182252359185e-07 row=0.9668820678513732,0.9383398352839185 b=79168,589760 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"GemsFDTD/SRAM":       `cyc=441937 in=800000 ipc=1.8102127678832052 pc=[0.46096757093138496 0.45921799767176474 0.4525531919708013 0.4565188610767454] l3=10452,10083,0.9646957520091849,337.6494450822807 tlb=32000,369,0.01153125 nc=0 e=0.0029462466666666663,0.0001278248832,0.000404550936,1.9035e-07 edp=5.12472036081469e-07 row=0.8891649149627365,0.5 b=2156736,1511424 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0.9646957520091849`,
	"GemsFDTD/cTLB":       `cyc=424987 in=800000 ipc=1.8824105207924007 pc=[0.48159233690273523 0.48674117051516685 0.47060263019810017 0.47787898192661693] l3=10452,10452,1,317.7223497895133 tlb=32000,369,0.01153125 nc=0 e=0.0028332466666666665,0.0001188940224,0.000422555184,0 edp=4.780672916689944e-07 row=0.9553299492385787,0.5 b=2180352,1558656 ctrl={Walks:369 NonCacheable:0 VictimHits:0 ColdFills:369 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 766.8536585365857 0] kc=[0 0 369 0] sram=0`,
	"GemsFDTD/Ideal":      `cyc=197949 in=800000 ipc=4.041445018666424 pc=[1.052764559733861 1.0548745754129834 1.010361254666606 1.0287324986883661] l3=10452,10452,1,134.63040566398868 tlb=32000,369,0.01153125 nc=0 e=0.0013196599999999998,4.15541136e-05,0,0 edp=8.981699085766878e-08 row=0.9534683737817695,0 b=668928,0 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"MIX1/NoL3":           `cyc=460838 in=800007 ipc=1.7359831437511664 pc=[0.43399198850789217 0.4426346706329708 0.47737053789876954 0.4354176552793003] l3=10277,0,0,366.74642405371236 tlb=43379,224,0.005163788930127481 nc=0 e=0.003072253333333333,0,0.000191415192,0 edp=5.013408252925209e-07 row=0,0.8850184358626043 b=0,657728 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"MIX1/BI":             `cyc=426122 in=800007 ipc=1.8774130413355798 pc=[0.47167030245858144 0.47650306295315864 0.5164109039359831 0.46941955590183093] l3=10277,1080,0.10508903376471733,330.87681229930996 tlb=43379,224,0.005163788930127481 nc=0 e=0.0028408133333333334,3.913944e-06,0.000170812512,0 edp=4.2832928203676617e-07 row=0.9768946395563771,0.888551604509974 b=69120,588608 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"MIX1/SRAM":           `cyc=581323 in=800007 ipc=1.3761832922488875 pc=[0.3861928338057759 0.3774854562820179 0.5309883947844234 0.344094419109514] l3=10277,10053,0.9782037559599105,398.9464824365077 tlb=43379,224,0.005163788930127481 nc=0 e=0.003875486666666667,0.0001056578752,0.00024558105599999997,1.8633e-07 edp=8.190670408810781e-07 row=0.8334950514263536,0.5 b=1560896,917504 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0.9782037559599105`,
	"MIX1/cTLB":           `cyc=554608 in=800007 ipc=1.442472881747108 pc=[0.40902221195122 0.3924036723889954 0.5601969731346795 0.360669157314716] l3=10277,10277,1,372.35243748175617 tlb=43379,224,0.005163788930127481 nc=0 e=0.0036973866666666667,9.52468784e-05,0.000256510464,0 edp=7.485625535268153e-07 row=0.9075973409306742,0.5 b=1575232,946176 ctrl={Walks:224 NonCacheable:0 VictimHits:0 ColdFills:224 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 596.9241071428575 0] kc=[0 0 224 0] sram=0`,
	"MIX1/Ideal":          `cyc=266031 in=800007 ipc=3.0071946502475275 pc=[0.7517920843811435 0.7775224720848496 0.8447284722896858 0.7566976613983188] l3=10277,10277,1,189.397489539749 tlb=43379,224,0.005163788930127481 nc=0 e=0.00177354,4.81206736e-05,0,0 edp=1.6153940355282723e-07 row=0.9065592858529012,0 b=657728,0 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"streamcluster/NoL3":  `cyc=375328 in=800048 ipc=2.1315968965811236 pc=[0.5328992241452809 0.5517435429189345 0.5432938472946948 0.5592582443700054] l3=9785,0,0,476.7062851303026 tlb=25808,368,0.01425914445133292 nc=0 e=0.0025021866666666667,0,0.00016817735999999998,0 edp=3.3408746313358224e-07 row=0,0.9806102663537095 b=0,626240 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"streamcluster/BI":    `cyc=353507 in=800048 ipc=2.2631744208742686 pc=[0.6955414987324516 0.625244612277817 0.6294376626605364 0.5657936052185671] l3=9495,1009,0.1062664560294892,407.4202211690359 tlb=25808,355,0.01375542467451953 nc=0 e=0.0023567133333333335,3.4862912000000002e-06,0.000145374456,0 edp=2.952459921623657e-07 row=0.9881188118811881,0.984349258649094 b=64576,543104 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"streamcluster/SRAM":  `cyc=272287 in=800048 ipc=2.938252652532071 pc=[0.7601839534795333 0.7586413548521687 0.7345631631330177 0.766467524803317] l3=9940,9825,0.988430583501006,312.79637826961726 tlb=25808,370,0.014336639801611904 nc=0 e=0.0018152466666666667,7.285680799999999e-05,0.00012607956,1.7961e-07 edp=1.828282538094509e-07 row=0.8891902752662246,0.5 b=1099840,471040 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0.988430583501006`,
	"streamcluster/cTLB":  `cyc=247301 in=800048 ipc=3.235118337572432 pc=[0.9222923122325513 0.8506334712694518 0.808779584393108 0.8213606665763225] l3=9683,9683,1,262.66177837447145 tlb=25808,366,0.014181649101053937 nc=0 e=0.0016486733333333334,5.7571502399999994e-05,0.00013169064,0 edp=1.5150776036144305e-07 row=0.9882784629497503,0.5 b=1090752,485760 ctrl={Walks:366 NonCacheable:0 VictimHits:250 ColdFills:115 PendingWaits:1 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 40 531.2347826086955 270] kc=[0 250 115 1] sram=0`,
	"streamcluster/Ideal": `cyc=185533 in=800048 ipc=4.312160100898493 pc=[1.127304494856982 1.134794103963598 1.0780400252246232 1.0882815433082862] l3=9797,9797,1,197.75186281514831 tlb=25808,354,0.013716676999380038 nc=0 e=0.0012368866666666667,3.38278096e-05,0,0 edp=7.858648964172783e-08 row=0.9882784629497503,0 b=627008,0 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
}

// goldenBaselines pins the extra baselines, Alloy and Banshee
// (registered through the internal/org registry but not part of the
// paper's five plotted designs, so they are fingerprinted separately from
// the design grid above).
var goldenBaselines = map[string]string{
	"sphinx3/Alloy":         `cyc=739801 in=800120 ipc=1.0815340882210216 pc=[0.2714840622039571 0.27369988109523735 0.2703835220552554 0.28272631674167215] l3=6332,0,0,952.2323120656926 tlb=28920,216,0.007468879668049793 nc=0 e=0.004932006666666667,5.127456959999999e-05,0.000114200472,0 edp=1.2570406884191295e-06 row=0.9762274704785581,0.9242638954495355 b=911808,405248 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"GemsFDTD/Alloy":        `cyc=1270523 in=800000 ipc=0.6296619581070158 pc=[0.162387090226327 0.16534500889556147 0.1582661625361836 0.15741548952675394] l3=10452,0,0,1141.8936088786804 tlb=32000,369,0.01153125 nc=0 e=0.008470153333333334,8.51605056e-05,0.000186946992,0 edp=3.702414485899971e-06 row=0.9745930177848876,0.9340722339002484 b=1505088,668928 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"MIX1/Alloy":            `cyc=1371547 in=800007 ipc=0.5832880681449487 pc=[0.14879701334634812 0.1529987713277158 0.15711759386776925 0.14584261421591824] l3=10277,0,0,1165.5604748467404 tlb=43379,224,0.005163788930127481 nc=0 e=0.009143646666666666,9.17002656e-05,0.000191520192,0 edp=4.309797107895524e-06 row=0.949278823192282,0.8843392198719193 b=1479888,657728 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"streamcluster/Alloy":   `cyc=730043 in=800048 ipc=1.0958916118639588 pc=[0.27993517090416437 0.2873298032196246 0.27730761551942146 0.2739729029659897] l3=9856,4606,0.46732954545454547,976.4378043831164 tlb=25808,372,0.014414135151890887 nc=0 e=0.004866953333333333,5.76067584e-05,9.0744e-05,0 edp=1.2204625483470926e-06 row=0.99167804434042,0.9741543139490688 b=1087632,336000 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"sphinx3/Banshee":       `cyc=265426 in=800120 ipc=3.0144748442126996 pc=[0.777763952936785 0.7570012110202846 0.7536187110531749 0.7924333960582352] l3=6332,5903,0.9322488945041061,276.8957675300051 tlb=28920,216,0.007468879668049793 nc=0 e=0.0017695066666666666,7.8997288e-05,0.00023766631199999998,0 edp=1.8457460973342223e-07 row=0.8371372676882948,0.6640746500777605 b=1250240,887808 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"GemsFDTD/Banshee":      `cyc=417819 in=800000 ipc=1.9147046927018638 pc=[0.5002025820457285 0.4998213138802878 0.47867617317546596 0.4904437044193882] l3=10452,9755,0.9333141982395714,309.7105817068497 tlb=32000,369,0.01153125 nc=0 e=0.00278546,0.0001150317696,0.000367201296,0 edp=4.5510141632530877e-07 row=0.9057145686837674,0.64 b=1967808,1369664 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"MIX1/Banshee":          `cyc=614877 in=800007 ipc=1.3010846071653355 pc=[0.3452156562204409 0.3445937796157491 0.5386859308461209 0.3253170959395131] l3=10277,9835,0.9569913398851805,445.6015374136413 tlb=43379,224,0.005163788930127481 nc=0 e=0.00409918,0.00010194524159999999,0.0002433282,0 edp=9.109307329368945e-07 row=0.8413013291013688,0.6606060606060606 b=1522368,908800 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
	"streamcluster/Banshee": `cyc=262479 in=800048 ipc=3.0480457484217784 pc=[0.8556004243523493 0.8259975386750142 0.7620114371054446 0.801034874965958] l3=9446,9221,0.9761803938174889,301.2601100995134 tlb=25808,350,0.013561686298822071 nc=0 e=0.00174986,6.57790448e-05,0.000122916216,0 edp=1.696100154331744e-07 row=0.9108518835616438,0.6567164179104478 b=1040704,458944 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0`,
}

// goldenVariants cover the tagless design's feature knobs: replacement
// policies, superpages, the alias table, hot-page filtering, NC
// classification, eviction pressure, memory-modeled walks, and
// synchronous eviction.
var goldenVariants = map[string]struct {
	workload string
	mod      func(*taglessdram.Options)
	want     string
}{
	"lru":        {"MIX1", func(o *taglessdram.Options) { o.Policy = taglessdram.LRU }, `cyc=554608 in=800007 ipc=1.442472881747108 pc=[0.40902221195122 0.3924036723889954 0.5601969731346795 0.360669157314716] l3=10277,10277,1,372.35243748175617 tlb=43379,224,0.005163788930127481 nc=0 e=0.0036973866666666667,9.52468784e-05,0.000256510464,0 edp=7.485625535268153e-07 row=0.9075973409306742,0.5 b=1575232,946176 ctrl={Walks:224 NonCacheable:0 VictimHits:0 ColdFills:224 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 596.9241071428575 0] kc=[0 0 224 0] sram=0`},
	"clock":      {"MIX1", func(o *taglessdram.Options) { o.Policy = taglessdram.CLOCK }, `cyc=554608 in=800007 ipc=1.442472881747108 pc=[0.40902221195122 0.3924036723889954 0.5601969731346795 0.360669157314716] l3=10277,10277,1,372.35243748175617 tlb=43379,224,0.005163788930127481 nc=0 e=0.0036973866666666667,9.52468784e-05,0.000256510464,0 edp=7.485625535268153e-07 row=0.9075973409306742,0.5 b=1575232,946176 ctrl={Walks:224 NonCacheable:0 VictimHits:0 ColdFills:224 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 596.9241071428575 0] kc=[0 0 224 0] sram=0`},
	"super":      {"lbm", func(o *taglessdram.Options) { o.Superpages = true }, `cyc=554408 in=799976 ipc=1.44293733135164 pc=[0.3722099699431432 0.36073433283791 0.3781291122774643 0.3632687906419152] l3=14879,14877,0.9998655823644063,635.0676120707005 tlb=42104,57,0.0013537906137184115 nc=4 e=0.0036960533333333335,0.0001495886416,0.000485138712,0 edp=8.003398196937784e-07 row=0.9627624885874527,0.11066398390342053 b=2754368,1809408 ctrl={Walks:57 NonCacheable:2 VictimHits:0 ColdFills:55 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[40 0 2547.327272727273 0] kc=[2 0 55 0] sram=0`},
	"alias":      {"MIX1", func(o *taglessdram.Options) { o.SharedAliasTable = true }, `cyc=574349 in=800007 ipc=1.3928935194454939 pc=[0.3955305052902205 0.3832304921048597 0.5417224211626912 0.34827256598340034] l3=10277,10277,1,378.460640264668 tlb=43379,224,0.005163788930127481 nc=0 e=0.0038289933333333333,9.51268784e-05,0.000256510464,0 edp=8.003803493255881e-07 row=0.9083570750237417,0.5 b=1575232,946176 ctrl={Walks:224 NonCacheable:0 VictimHits:0 ColdFills:224 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 652.660714285714 0] kc=[0 0 224 0] sram=0`},
	"hot":        {"MIX1", func(o *taglessdram.Options) { o.HotFilterThreshold = 8 }, `cyc=650026 in=800007 ipc=1.2307307707691693 pc=[0.33175473372535685 0.31963233131736757 0.5668675347645421 0.30772615249236185] l3=10777,10015,0.9292938665676904,434.97494664563646 tlb=43379,441,0.010166209456188478 nc=1545 e=0.004333506666666667,9.36253504e-05,0.000261474264,0 edp=1.0159053288188805e-06 row=0.9005944839684241,0.8127090301003345 b=1529792,965376 ctrl={Walks:441 NonCacheable:224 VictimHits:0 ColdFills:217 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[40 0 603.3870967741943 0] kc=[224 0 217 0] sram=0`},
	"nc":         {"GemsFDTD", func(o *taglessdram.Options) { o.NCAccessThreshold = 32 }, `cyc=394947 in=800000 ipc=2.025588243485835 pc=[0.5225220047079233 0.5203956047387224 0.5063970608714587 0.5069066024584971] l3=10452,10411,0.9960773057787983,288.4397244546508 tlb=32000,369,0.01153125 nc=82 e=0.00263298,0.0001093963504,0.000376912344,0 edp=4.1065123732906566e-07 row=0.9597321677671348,0.47058823529411764 b=2009792,1388096 ctrl={Walks:369 NonCacheable:41 VictimHits:0 ColdFills:328 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[40 0 733.4664634146341 0] kc=[41 0 328 0] sram=0`},
	"smallcache": {"milc", func(o *taglessdram.Options) { o.CacheMB = 2 }, `cyc=771391 in=800000 ipc=1.037087547041643 pc=[0.26670222696359513 0.2764810050637496 0.26736824093086925 0.25927188676041074] l3=12133,12133,1,560.3114646006759 tlb=32000,416,0.013 nc=0 e=0.005142606666666666,0.00019476276959999998,0.000788834616,0 edp=1.5752328900273452e-06 row=0.9585568773812301,0.37242614145031333 b=3647808,2924544 ctrl={Walks:416 NonCacheable:0 VictimHits:0 ColdFills:416 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:291 Writebacks:285 SyncEvictions:167 Shootdowns:291} km=[0 0 1601.5865384615377 0] kc=[0 0 416 0] sram=0`},
	"memwalk":    {"mcf", func(o *taglessdram.Options) { o.WalkModel = "pwc" }, `cyc=524810 in=800052 ipc=1.5244602808635506 pc=[0.3958474344816121 0.38111507021588764 0.3877596124206841 0.3962662260472636] l3=19105,19105,1,124.85668673122261 tlb=72732,2103,0.028914370565913217 nc=0 e=0.003498733333333333,0.00015246968959999998,0.00018861744,0 edp=6.717253923840142e-07 row=0.8008273009307135,0.8588342440801457 b=1849408,696960 ctrl={Walks:2103 NonCacheable:0 VictimHits:1950 ColdFills:153 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 33.26769230769227 1109.7254901960782 0] kc=[0 1950 153 0] sram=0`},
	"sync":       {"milc", func(o *taglessdram.Options) { o.CacheMB = 2; o.SynchronousEviction = true }, `cyc=846595 in=800000 ipc=0.9449618766942871 pc=[0.24355641070917539 0.25353651749845657 0.24232731149964257 0.23624046917357178] l3=12133,12133,1,604.0360998928523 tlb=32000,416,0.013 nc=0 e=0.005643966666666667,0.00019428305439999998,0.000787738272,0 edp=1.8698427683300915e-06 row=0.9599533437013997,0.3727598566308244 b=3643712,2920448 ctrl={Walks:416 NonCacheable:0 VictimHits:0 ColdFills:416 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:290 Writebacks:284 SyncEvictions:290 Shootdowns:290} km=[0 0 1884.6850961538462 0] kc=[0 0 416 0] sram=0`},
}

// TestModelVersionPinsGoldens ties the result-cache model stamp to the
// golden table: a change to any golden fingerprint means the model's
// results changed, so cached Results from before must stop matching.
func TestModelVersionPinsGoldens(t *testing.T) {
	const wantVersion = 1
	const wantDigest = "095b770b44f8d003115fc4e4fd77198f853d0b8588a2243dbaa32fc0b31d4285"
	var all []string
	for _, v := range golden {
		all = append(all, v)
	}
	for _, v := range goldenBaselines {
		all = append(all, v)
	}
	for _, v := range goldenVariants {
		all = append(all, v.want)
	}
	sort.Strings(all)
	sum := sha256.Sum256([]byte(strings.Join(all, "\n")))
	digest := hex.EncodeToString(sum[:])
	if v := taglessdram.ModelVersion(); v != wantVersion || digest != wantDigest {
		t.Fatalf("model version %d with golden digest %s, pinned pair is %d with %s: bump modelVersion in canonical.go and update this pair",
			v, digest, wantVersion, wantDigest)
	}
}

// TestGoldenDeterminism runs every (workload, design) pair and feature
// variant at fixed seeds and compares against the pinned fingerprints.
// Subtests run in parallel: each simulation is fully isolated, so
// parallelism cannot change the metrics — the same property that makes
// -j 1 and -j N sweeps byte-identical.
func TestGoldenDeterminism(t *testing.T) {
	for _, wl := range []string{"sphinx3", "GemsFDTD", "MIX1", "streamcluster"} {
		for _, d := range taglessdram.Designs() {
			key := wl + "/" + d.String()
			want, ok := golden[key]
			if !ok {
				t.Fatalf("missing golden entry for %s", key)
			}
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				r, err := taglessdram.Run(d, wl, goldenOptions())
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(r); got != want {
					t.Errorf("fingerprint changed:\n got: %s\nwant: %s", got, want)
				}
			})
		}
	}
	baseline := map[string]taglessdram.Design{"Alloy": taglessdram.AlloyBlock, "Banshee": taglessdram.Banshee}
	for key, want := range goldenBaselines {
		key, want := key, want
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			wl, name, _ := strings.Cut(key, "/")
			r, err := taglessdram.Run(baseline[name], wl, goldenOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(r); got != want {
				t.Errorf("fingerprint changed:\n got: %s\nwant: %s", got, want)
			}
		})
	}
	for name, v := range goldenVariants {
		t.Run("variant/"+name, func(t *testing.T) {
			t.Parallel()
			o := goldenOptions()
			v.mod(&o)
			r, err := taglessdram.Run(taglessdram.Tagless, v.workload, o)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(r); got != v.want {
				t.Errorf("fingerprint changed:\n got: %s\nwant: %s", got, v.want)
			}
		})
	}
}

// goldenSampleSpec is dense enough at goldenOptions() budgets for at
// least 20 windows, with fast-forward covering at least twice the
// references the windows simulate cycle-accurately.
var goldenSampleSpec = taglessdram.SampleSpec{WindowRefs: 150, WarmRefs: 50, PeriodRefs: 800}

// sampledFingerprint extends fingerprint with the sampled run's window
// population and confidence half-width.
func sampledFingerprint(r *taglessdram.Result) string {
	s := r.Sampled
	return fmt.Sprintf("%s win=%d mrefs=%d frefs=%d ci=%v",
		fingerprint(r), s.Windows, s.MeasuredRefs, s.FastRefs, s.IPCCI95)
}

// goldenSampled pins sampled Results exactly: every organization on
// streamcluster (its threads share one page table, so one core's walk
// finds pages another core cached) and each goldenVariants knob on its
// workload. Fast-forward's state transitions feed every window after the
// first, so any drift in them shows here. The table stays out of
// TestModelVersionPinsGoldens' digest: sampled cells are keyed
// separately.
var goldenSampled = map[string]string{
	"streamcluster/Alloy":   `cyc=161665 in=157162 ipc=1.006095944871455 pc=[0.29540722959406696 0.2636930415498556 0.25152398621786376 0.30591316910488975] l3=2497,1207,0.48338005606728074,904.1313576291559 tlb=6766,118,0.01744014188590009 nc=0 e=0.0010777666666666667,1.54153968e-05,2.2980839999999998e-05,0 edp=6.014815859631288e-08 row=0.9748313440581214,0.9388544891640866 b=272664,82560 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0 win=34 mrefs=6766 frefs=19067 ci=0.2046937837687099`,
	"streamcluster/BI":      `cyc=73363 in=156288 ipc=2.1939529135140026 pc=[0.7384438896011877 0.5622119815668203 0.5484882283785006 0.6647229391708886] l3=2617,359,0.13717997707298432,372.5857852502868 tlb=6735,130,0.019302152932442463 nc=0 e=0.0004890866666666667,1.3113712e-06,3.9486168e-05,0 edp=1.2957964998332091e-08 row=0.975,0.9606020362992475 b=22976,144512 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0 win=34 mrefs=6735 frefs=19104 ci=0.4216784065566772`,
	"streamcluster/Banshee": `cyc=54903 in=158100 ipc=3.119012723294887 pc=[0.8589665388637155 0.9614014251781473 0.7797531808237218 0.8683511217599651] l3=2511,2428,0.9669454400637196,307.42453205894105 tlb=6800,108,0.01588235294117647 nc=0 e=0.00036602,1.97346784e-05,4.4625288e-05,0 edp=7.8763837650864e-09 row=0.9084278768233387,0.6504065040650406 b=319232,166592 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0 win=34 mrefs=6800 frefs=19064 ci=0.5064922958595196`,
	"streamcluster/Ideal":   `cyc=38871 in=156416 ipc=4.24441694655589 pc=[1.2360198388096715 1.0636469479403448 1.0611042366389725 1.2041819012797075] l3=2550,2550,1,197.0011764705883 tlb=6741,126,0.018691588785046728 nc=0 e=0.00025914,9.66084e-06,0,0 edp=3.4828524838799995e-09 row=0.9658957271658173,0 b=163200,0 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0 win=34 mrefs=6741 frefs=19094 ci=0.49753783099642646`,
	"streamcluster/NoL3":    `cyc=90105 in=155062 ipc=1.8943452380952381 pc=[0.4933627472233203 0.47358630952380953 0.594587493431424 0.548777092278609] l3=2447,0,0,488.81610134858937 tlb=6702,121,0.018054312145628172 nc=0 e=0.0006007,0,4.2814512e-05,0 edp=1.932795836792e-08 row=0,0.9599836668027767 b=0,156608 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0 win=34 mrefs=6702 frefs=19158 ci=0.4562441378484811`,
	"streamcluster/SRAM":    `cyc=61602 in=158158 ipc=2.704341052333404 pc=[0.8858031503963079 0.7364246834140775 0.676085263083351 0.7351926916328877] l3=2719,2683,0.9867598381757999,308.7223243839653 tlb=6800,127,0.018676470588235294 nc=0 e=0.00041068,2.14714016e-05,3.9468384e-05,4.9157999999999996e-08 edp=9.6852500878824e-09 row=0.8743570903747244,0.5 b=319168,147456 ctrl={Walks:0 NonCacheable:0 VictimHits:0 ColdFills:0 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 0 0] kc=[0 0 0 0] sram=0.9867598381757999 win=34 mrefs=6800 frefs=19091 ci=0.5121490368294787`,
	"streamcluster/cTLB":    `cyc=52432 in=156474 ipc=3.335402655630281 pc=[0.907832665776591 0.8651174980344195 0.8349900596421471 0.8338506639075702] l3=2492,2492,1,297.43418940609956 tlb=6741,118,0.017504821243139 nc=0 e=0.00034954666666666664,1.7394963199999997e-05,4.3515168e-05,0 edp=7.173690275248355e-09 row=0.9668115369419202,0.5 b=315136,160512 ctrl={Walks:118 NonCacheable:0 VictimHits:80 ColdFills:38 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 40 580 0] kc=[0 80 38 0] sram=0 win=34 mrefs=6741 frefs=19094 ci=0.6182314363883626`,
	"variant/alias":         `cyc=261243 in=158315 ipc=0.5535485635434666 pc=[0.13838714088586665 0.8507708842932326 0.5082070809365632 0.9044897959183673] l3=2550,2550,1,984.7772549019629 tlb=11200,74,0.0066071428571428574 nc=0 e=0.0017416200000000001,2.9514764799999995e-05,8.4740064e-05,0 edp=1.6161143596673283e-07 row=0.8569798402434385,0.5 b=466304,312576 ctrl={Walks:74 NonCacheable:0 VictimHits:0 ColdFills:74 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 763.6081081081079 0] kc=[0 0 74 0] sram=0 win=56 mrefs=11200 frefs=32228 ci=0.8493642360060336`,
	"variant/clock":         `cyc=257341 in=160587 ipc=0.6150548449460619 pc=[0.15376371123651547 0.8173954282462297 0.5335866655151568 0.9857448467521043] l3=2657,2657,1,925.9973654497588 tlb=11200,82,0.007321428571428572 nc=0 e=0.0017156066666666665,3.1558103999999996e-05,9.3901152e-05,0 edp=1.5792724853498753e-07 row=0.8627093954843409,0.5 b=505920,346368 ctrl={Walks:82 NonCacheable:0 VictimHits:0 ColdFills:82 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 638.2926829268291 0] kc=[0 0 82 0] sram=0 win=56 mrefs=11200 frefs=32196 ci=0.9228988046654767`,
	"variant/hot":           `cyc=349454 in=160955 ipc=0.4330419477852743 pc=[0.10826048694631857 0.7248627316403569 0.5158425504229017 0.9456296016613177] l3=2791,2566,0.9193837334288786,1114.3231816553189 tlb=11200,132,0.011785714285714287 nc=444 e=0.0023296933333333335,2.48928896e-05,6.5998944e-05,0 edp=2.81961056308507e-07 row=0.8689523809523809,0.7657657657657657 b=385408,242496 ctrl={Walks:132 NonCacheable:78 VictimHits:0 ColdFills:54 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[40 0 557.6111111111111 0] kc=[78 0 54 0] sram=0 win=56 mrefs=11200 frefs=32216 ci=0.6973984888140675`,
	"variant/lru":           `cyc=257341 in=160587 ipc=0.6150548449460619 pc=[0.15376371123651547 0.8173954282462297 0.5335866655151568 0.9857448467521043] l3=2657,2657,1,925.9973654497588 tlb=11200,82,0.007321428571428572 nc=0 e=0.0017156066666666665,3.1558103999999996e-05,9.3901152e-05,0 edp=1.5792724853498753e-07 row=0.8627093954843409,0.5 b=505920,346368 ctrl={Walks:82 NonCacheable:0 VictimHits:0 ColdFills:82 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 0 638.2926829268291 0] kc=[0 0 82 0] sram=0 win=56 mrefs=11200 frefs=32196 ci=0.9228988046654767`,
	"variant/memwalk":       `cyc=99714 in=153450 ipc=1.627574649258886 pc=[0.4068936623147215 0.42272317403065823 0.42155937727838055 0.43545896352818275] l3=4939,4939,1,124.93925895930376 tlb=18600,595,0.03198924731182796 nc=0 e=0.00066476,4.3937723200000004e-05,4.7647104e-05,0 edp=2.51393893664736e-08 row=0.7418516296740651,0.7883597883597884 b=479936,175936 ctrl={Walks:595 NonCacheable:0 VictimHits:555 ColdFills:40 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[0 31.699099099099122 962.0000000000002 0] kc=[0 555 40 0] sram=0 win=93 mrefs=18600 frefs=54150 ci=0.3134420194240175`,
	"variant/nc":            `cyc=86136 in=157408 ipc=2.0185029436501263 pc=[0.5397768517273828 0.5802805977590959 0.5330116378086858 0.5046257359125316] l3=2579,2563,0.9937960449786739,345.863125242342 tlb=8422,129,0.01531702683448112 nc=32 e=0.00057424,3.4856256e-05,0.000129910704,0 edp=2.121836783552e-08 row=0.9312920089619119,0.4669421487603306 b=626880,478336 ctrl={Walks:129 NonCacheable:16 VictimHits:0 ColdFills:113 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[40 0 933.2389380530976 0] kc=[16 0 113 0] sram=0 win=42 mrefs=8422 frefs=23608 ci=0.43899327901962526`,
	"variant/smallcache":    `cyc=185235 in=159250 ipc=0.93505249673766 pc=[0.23582842927616718 0.233763124184415 0.23587466074512706 0.2630503787045476] l3=3311,3311,1,749.2056780428875 tlb=8520,146,0.017136150234741784 nc=0 e=0.0012349,6.76718608e-05,0.000286646352,0 edp=9.812627854933598e-08 row=0.9375175119080975,0.371571072319202 b=1256384,1063168 ctrl={Walks:146 NonCacheable:0 VictimHits:0 ColdFills:146 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:111 Writebacks:109 SyncEvictions:60 Shootdowns:111} km=[0 0 1798.2739726027398 0] kc=[0 0 146 0] sram=0 win=43 mrefs=8520 frefs=23506 ci=0.17366283252875556`,
	"variant/super":         `cyc=142150 in=154444 ipc=1.2364247916896707 pc=[0.30910619792241767 0.3550767305781474 0.36244848549582986 0.3273504706856631] l3=3649,3648,0.9997259523157029,752.6878596875857 tlb=10800,21,0.0019444444444444444 nc=2 e=0.0009476666666666666,5.01281984e-05,0.000176422776,0 edp=5.563834589254222e-08 row=0.919202518363064,0.11049723756906077 b=888832,657984 ctrl={Walks:21 NonCacheable:1 VictimHits:0 ColdFills:20 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} km=[40 0 2462.15 0] kc=[1 0 20 0] sram=0 win=54 mrefs=10800 frefs=31346 ci=0.3677086455129981`,
	"variant/sync":          `cyc=195454 in=158492 ipc=0.903608970505183 pc=[0.2291694433015976 0.24336832985648005 0.22590224262629574 0.24008362283641282] l3=3114,3114,1,760.3583815028904 tlb=8486,138,0.016262078717888286 nc=0 e=0.0013030266666666666,6.34456032e-05,0.000269765856,0 edp=1.0660309555104782e-07 row=0.9422447156891932,0.38095238095238093 b=1182336,1000704 ctrl={Walks:138 NonCacheable:0 VictimHits:0 ColdFills:138 PendingWaits:0 AliasHits:0 Rescues:0 Evictions:103 Writebacks:102 SyncEvictions:103 Shootdowns:103} km=[0 0 2164.2028985507254 0] kc=[0 0 138 0] sram=0 win=43 mrefs=8486 frefs=23560 ci=0.15804300438393268`,
}

// TestGoldenSampled runs the goldenSampled cells and compares each
// against its pinned fingerprint.
func TestGoldenSampled(t *testing.T) {
	type cell struct {
		design   taglessdram.Design
		workload string
		mod      func(*taglessdram.Options)
	}
	cells := map[string]cell{}
	for _, d := range taglessdram.Organizations() {
		cells["streamcluster/"+d.String()] = cell{d, "streamcluster", nil}
	}
	for name, v := range goldenVariants {
		cells["variant/"+name] = cell{taglessdram.Tagless, v.workload, v.mod}
	}
	for key, c := range cells {
		key, c := key, c
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			o := goldenOptions()
			if c.mod != nil {
				c.mod(&o)
			}
			spec := goldenSampleSpec
			o.Sample = &spec
			r, err := taglessdram.Run(c.design, c.workload, o)
			if err != nil {
				t.Fatal(err)
			}
			if s := r.Sampled; s.Windows < 20 || s.FastRefs < 2*s.MeasuredRefs {
				t.Errorf("spec too sparse: %d windows, %d fast-forwarded vs %d accurate refs",
					s.Windows, s.FastRefs, s.MeasuredRefs)
			}
			want, ok := goldenSampled[key]
			if got := sampledFingerprint(r); !ok || got != want {
				t.Errorf("sampled fingerprint changed:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// goldenOneCore pins RunFairness(MIX5) at goldenOptions(): its 12
// run-alone cells are the only one-core machines the goldens run, beside
// its three four-core mixes. The variants cover the accurate path, the
// sampled path, and nested walks under the shared TLB topology with a
// flushing context switch every 20,000 references. Like goldenSampled,
// the table stays out of TestModelVersionPinsGoldens' digest.
var goldenOneCore = map[string]string{
	"accurate": `[{Design:NoL3 MixIPC:1.1158991712919115 WeightedSpeedup:1.4885164586496695 HarmonicSpeedup:0.34224217601062557 PerProgSlowdowns:[0.5649740373592286 0.35838521186387484 0.25898961124816816 0.3061675981783981]} {Design:SRAM MixIPC:0.811242996577513 WeightedSpeedup:1.1766935446935136 HarmonicSpeedup:0.2458899385170662 PerProgSlowdowns:[0.4857813690924399 0.3343031374281927 0.17676266981187208 0.179846368361009]} {Design:cTLB MixIPC:0.8524828967839561 WeightedSpeedup:1.136437960590745 HarmonicSpeedup:0.24532467527064222 PerProgSlowdowns:[0.44148315916939496 0.33213077817944675 0.1778130473462488 0.1850109758956544]}]`,
	"sampled":  `[{Design:NoL3 MixIPC:0.8873862073482219 WeightedSpeedup:1.9671956962120065 HarmonicSpeedup:0.46554297289205243 PerProgSlowdowns:[0.43065810055920356 0.4240844253519771 0.39803805727077035 0.7144151130300553]} {Design:SRAM MixIPC:0.908295980022215 WeightedSpeedup:1.656965246227207 HarmonicSpeedup:0.40503531021816147 PerProgSlowdowns:[0.3664413971826891 0.4178515774178584 0.35384062351125256 0.5188316481154073]} {Design:cTLB MixIPC:1.049073998159839 WeightedSpeedup:1.7868595493442874 HarmonicSpeedup:0.4398150920691644 PerProgSlowdowns:[0.3844032689159483 0.46136423698376133 0.4084103268952981 0.5326817165492796]}]`,
	"vm":       `[{Design:NoL3 MixIPC:0.6168151159168643 WeightedSpeedup:1.2587554345745728 HarmonicSpeedup:0.2687645048537369 PerProgSlowdowns:[0.5538040630143659 0.2890219003765717 0.20687434278665578 0.20905512839697957]} {Design:SRAM MixIPC:0.5246786618902644 WeightedSpeedup:1.0680482172727799 HarmonicSpeedup:0.2137847329074658 PerProgSlowdowns:[0.48144493403547856 0.2796807232710858 0.16020559328778713 0.1467169666784284]} {Design:cTLB MixIPC:0.5367451646861566 WeightedSpeedup:1.037785053748626 HarmonicSpeedup:0.2118160295474996 PerProgSlowdowns:[0.45528475489184955 0.2758050785602893 0.1593287696956247 0.14736645060086243]}]`,
}

// TestGoldenOneCore runs the goldenOneCore variants and compares each
// against its pinned rows.
func TestGoldenOneCore(t *testing.T) {
	variants := map[string]func(*taglessdram.Options){
		"accurate": func(*taglessdram.Options) {},
		"sampled": func(o *taglessdram.Options) {
			spec := goldenSampleSpec
			o.Sample = &spec
		},
		"vm": func(o *taglessdram.Options) {
			o.WalkModel, o.TLBTopology = "nested", "shared"
			o.CtxSwitchRefs, o.CtxSwitchFlush = 20_000, true
		},
	}
	for name, mod := range variants {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o := goldenOptions()
			mod(&o)
			rows, err := taglessdram.RunFairness(context.Background(), o, "MIX5")
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%+v", rows); got != goldenOneCore[name] {
				t.Errorf("fairness rows changed:\n got: %s\nwant: %s", got, goldenOneCore[name])
			}
		})
	}
}
