type stmt = Ins of Instr.t | Lbl of string

type t = {
  name : string;
  base : int;
  code : Instr.t array;
  label_tbl : (string, int) Hashtbl.t;
  targets : int array; (* resolved branch/call target index, or -1 *)
  tag_arr : string list array;
}

let attack_tag = "attack"

let assemble ?(base = 0x400000) ?(tags = []) ~name stmts =
  let label_tbl = Hashtbl.create 16 in
  let rev_code = ref [] in
  let count = ref 0 in
  List.iter
    (function
      | Ins ins ->
        rev_code := ins :: !rev_code;
        incr count
      | Lbl l ->
        if Hashtbl.mem label_tbl l then
          invalid_arg (Printf.sprintf "Program.assemble: duplicate label %S" l);
        Hashtbl.replace label_tbl l !count)
    stmts;
  let code = Array.of_list (List.rev !rev_code) in
  if Array.length code = 0 then invalid_arg "Program.assemble: empty program";
  (* A label at the very end (after the last instruction) would dangle; treat
     it as pointing past the end only if some branch needs it — reject to keep
     execution total. *)
  Hashtbl.iter
    (fun l i ->
      if i >= Array.length code then
        invalid_arg (Printf.sprintf "Program.assemble: label %S past end" l))
    label_tbl;
  let targets =
    Array.map
      (fun ins ->
        match Instr.branch_target ins with
        | Some l -> (
          match Hashtbl.find_opt label_tbl l with
          | Some i -> i
          | None ->
            invalid_arg (Printf.sprintf "Program.assemble: unbound label %S" l))
        | None -> -1)
      code
  in
  let tag_arr = Array.make (Array.length code) [] in
  List.iter
    (fun (i, ts) ->
      if i >= 0 && i < Array.length code then
        tag_arr.(i) <- ts @ tag_arr.(i))
    tags;
  { name; base; code; label_tbl; targets; tag_arr }

let name t = t.name
let base t = t.base
let code t = t.code
let length t = Array.length t.code

let instr t i =
  if i < 0 || i >= Array.length t.code then invalid_arg "Program.instr";
  t.code.(i)

let addr_of_index t i = t.base + (4 * i)

let index_of_addr t a =
  let off = a - t.base in
  if off < 0 || off mod 4 <> 0 then None
  else
    let i = off / 4 in
    if i < Array.length t.code then Some i else None

let label_index t l = Hashtbl.find t.label_tbl l

let target_index t i = t.targets.(i)

let labels t =
  Hashtbl.fold (fun l i acc -> (l, i) :: acc) t.label_tbl []
  |> List.sort (fun (_, a) (_, b) -> Int.compare a b)

let tags t i = if i >= 0 && i < Array.length t.tag_arr then t.tag_arr.(i) else []

let has_tag t i tag = List.mem tag (tags t i)

let tagged_indices t tag =
  let acc = ref [] in
  for i = Array.length t.tag_arr - 1 downto 0 do
    if List.mem tag t.tag_arr.(i) then acc := i :: !acc
  done;
  !acc

type item = { labels : string list; ins : Instr.t; item_tags : string list }

let deconstruct t =
  let by_index = Hashtbl.create 16 in
  Hashtbl.iter
    (fun l i ->
      Hashtbl.replace by_index i
        (l :: Option.value ~default:[] (Hashtbl.find_opt by_index i)))
    t.label_tbl;
  List.init (Array.length t.code) (fun i ->
      {
        labels =
          List.sort String.compare
            (Option.value ~default:[] (Hashtbl.find_opt by_index i));
        ins = t.code.(i);
        item_tags = t.tag_arr.(i);
      })

let reconstruct ?base ~name items =
  let stmts =
    List.concat_map
      (fun it -> List.map (fun l -> Lbl l) it.labels @ [ Ins it.ins ])
      items
  in
  let tags = List.mapi (fun i it -> (i, it.item_tags)) items in
  assemble ?base ~tags ~name stmts

let rename_labels f items =
  List.map
    (fun it ->
      { it with labels = List.map f it.labels; ins = Instr.map_target f it.ins })
    items

let splice ?base ~name parts =
  let n_parts = List.length parts in
  let entry i = Printf.sprintf "__part%d_entry" i in
  let all =
    List.concat
      (List.mapi
         (fun i part ->
           let prefix l = Printf.sprintf "p%d__%s" i l in
           let items = rename_labels prefix (deconstruct part) in
           (* Mark this part's entry point... *)
           let items =
             match items with
             | first :: rest ->
               { first with labels = entry i :: first.labels } :: rest
             | [] -> []
           in
           (* ...and chain: a Halt inside a non-final part jumps to the next
              part instead of stopping (any trailing code, e.g. functions
              placed after the halt, stays unreachable-but-present exactly as
              in the original program). *)
           if i = n_parts - 1 then items
           else
             List.map
               (fun it ->
                 match it.ins with
                 | Instr.Halt -> { it with ins = Instr.Jmp (entry (i + 1)) }
                 | _ -> it)
               items)
         parts)
  in
  reconstruct ?base ~name all

let pp fmt t =
  let by_index = Hashtbl.create 16 in
  Hashtbl.iter
    (fun l i ->
      Hashtbl.replace by_index i
        (l :: (Option.value ~default:[] (Hashtbl.find_opt by_index i))))
    t.label_tbl;
  Format.fprintf fmt "@[<v>%s (base 0x%x, %d instrs)@," t.name t.base
    (Array.length t.code);
  Array.iteri
    (fun i ins ->
      (match Hashtbl.find_opt by_index i with
      | Some ls -> List.iter (fun l -> Format.fprintf fmt "%s:@," l) ls
      | None -> ());
      Format.fprintf fmt "  0x%x: %s@," (addr_of_index t i)
        (Instr.to_string ins))
    t.code;
  Format.fprintf fmt "@]"
