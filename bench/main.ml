(* Experiment harness: regenerates every table and figure of the paper
   plus the extra measured/ablation experiments (DESIGN.md Section 4).

   Usage:
     main.exe                 run everything at scaled-down defaults
     main.exe fig6 fig11      run selected experiments
     main.exe --full          paper-scale simulation/engine parameters
     main.exe --scale 0.05    override the TPC-R scale factor
*)

let experiments ~full ~seed ~scale ~domains =
  let sim = { Exp_sim.full; seed } in
  let ov = { Exp_overhead.full; seed; scale } in
  let mt = { Exp_maintain.full; seed } in
  [
    ("table1", fun () -> Exp_overhead.table1 ov);
    ("fig6", fun () -> Exp_sim.fig6 sim);
    ("fig7", fun () -> Exp_sim.fig7 sim);
    ("fig8", fun () -> Exp_overhead.fig8 ov);
    ("fig9", fun () -> Exp_overhead.fig9 ov);
    ("fig10", fun () -> Exp_overhead.fig10 ov);
    ("fig11", fun () -> Exp_maintain.fig11 mt);
    ("fig12", fun () -> Exp_maintain.fig12 mt);
    ("maintain-measured", fun () -> Exp_maintain.maintain_measured mt);
    ("ablation-policy", fun () -> Exp_sim.ablation_policy sim);
    ("ablation-aux", fun () -> Exp_maintain.ablation_aux mt);
    ("ablation-f", fun () -> Exp_sim.ablation_f sim);
    ("ablation-drift", fun () -> Exp_sim.ablation_drift sim);
    ("ablation-interval", fun () -> Exp_overhead.ablation_interval ov);
    ("sens-warmup", fun () -> Exp_sim.sens_warmup sim);
    ("micro", fun () -> Exp_micro.run ());
    ("plancache", fun () -> Exp_plancache.run { Exp_plancache.full; seed; scale });
    ("telemetry", fun () -> Exp_telemetry.run { Exp_telemetry.full; seed; scale });
    ( "observability",
      fun () -> Exp_observability.run { Exp_observability.full; seed; scale } );
    ("torture", fun () -> Exp_torture.run { Exp_torture.full; seed; scale });
    ("shard", fun () -> Exp_shard.run { Exp_shard.full; seed; scale });
    ("shapes", fun () -> Exp_shapes.run { Exp_shapes.full; seed; scale });
    ("budget", fun () -> Exp_budget.run { Exp_budget.full; seed; scale });
    ("parallel", fun () -> Exp_parallel.run { Exp_parallel.full; seed; scale; domains });
  ]

let run full scale seed domains names =
  let exps = experiments ~full ~seed ~scale ~domains in
  let selected =
    match names with
    | [] -> exps
    | _ ->
        List.map
          (fun n ->
            match List.assoc_opt n exps with
            | Some f -> (n, f)
            | None ->
                Fmt.epr "unknown experiment %S; available: %a@." n
                  Fmt.(list ~sep:comma string)
                  (List.map fst exps);
                exit 2)
          names
  in
  Fmt.pr "Partial Materialized Views (ICDE 2007) — experiment harness@.";
  Fmt.pr "mode: %s, seed %d%a@."
    (if full then "paper-scale (--full)" else "scaled-down defaults")
    seed
    Fmt.(option (fun ppf s -> Fmt.pf ppf ", scale %.3f" s))
    scale;
  List.iter (fun (_, f) -> f ()) selected;
  Fmt.pr "@.done.@."

open Cmdliner

let full =
  Arg.(value & flag & info [ "full" ] ~doc:"Run at the paper's simulation/engine sizes.")

let scale =
  Arg.(
    value
    & opt (some float) None
    & info [ "scale" ] ~docv:"S" ~doc:"TPC-R scale factor override for the engine experiments.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let domains =
  Arg.(
    value
    & opt int 4
    & info [ "domains" ] ~docv:"N"
        ~doc:"Largest Domain-pool size the parallel experiment sweeps to.")

let names =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT"
        ~doc:
          "Experiments to run: table1 fig6 fig7 fig8 fig9 fig10 fig11 fig12 \
           maintain-measured ablation-policy ablation-aux ablation-f ablation-drift ablation-interval sens-warmup micro plancache telemetry observability torture shard shapes budget parallel. \
           Default: all.")

let cmd =
  let doc = "Regenerate the tables and figures of 'Partial Materialized Views' (ICDE 2007)" in
  Cmd.v (Cmd.info "pmv-bench" ~doc)
    Term.(const run $ full $ scale $ seed $ domains $ names)

let () = exit (Cmd.eval cmd)
